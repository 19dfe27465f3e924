"""Holonomies of deformable triangles on Kendall's shape sphere.

A numerical library and CLI for the SU(2) geometric transport generated by
closed shape cycles of three-body systems: the Kendall shape map of planar
body frames and closed shape loops, the Guichardet and Wilczek-Zee
connections, Wilson-line holonomies and their trace expansion, holonomic
gate synthesis (phase, Hadamard-type, linked CZ/CNOT),
zero-angular-momentum trimer dynamics, and demonstrator feasibility
estimates with an interferometric readout model.
"""

from .connection import (
    BlochField,
    ControlField,
    GaugePatch,
    curvature_vector,
)
from .demonstrator import (
    ErrorBudget,
    PlatformParams,
    RamseyResult,
    WindowReport,
    adiabatic_window,
    gate_budget,
    leakage_estimate,
    ramsey_echo,
)
from .errors import NumericalError, ValidationError
from .gates import (
    CANONICAL_CNOT,
    CANONICAL_HADAMARD,
    GateSpec,
    HADAMARD_ROTATION,
    PHASE_GATE_TARGET,
    TwoQubitGate,
    compile_cnot,
    cs_controlled_phase,
    gate_fidelity,
    interaction_frame,
    make_ellipse_loop,
    synth_hadamard_gate,
    synth_phase_gate,
)
from .holonomy import (
    HolonomyLoop,
    TraceExpansion,
    WilsonLine,
    dyson_trace,
    holonomy_trace,
    integrate_wilson,
    rotation_angle,
    trace_expansion_from_rates,
    wilson_from_rates,
)
from .linking import LinkData, SpaceCurve, cs_phase, gauss_linking, hopf_pair
from .shapespace import ShapeLoop, ShapePoint, solid_angle
from .trimer import (
    BondDrive,
    TrimerTrajectory,
    bond_lengths,
    effective_momentum_series,
    phase_sweep,
    precession_berry_phase,
    reconstruct_rotation,
)

__version__ = "0.1.0"
