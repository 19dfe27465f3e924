"""Holonomic gate synthesis: single-qubit loops and the linked two-qubit gates.

Single-qubit gates come from small elliptical loops around an equatorial
base point of the shape sphere in the pinned-axis regime.  A loop of
semi-axes (a, b) encloses the solid angle ~pi a b, and the diagonal
transport angle is the coupling weight times half the enclosed angle, so
``a b = 1/q`` realises a pi/2 phase rotation.  The Hadamard-type gate keeps
the same loop but steers the control phase against the accumulated
diagonal phase so the interaction-picture transverse generator stays
aligned with one equatorial axis.  Its step factors then commute, the
transverse rotation angle is 2 pi q |psi| up to round-off, and the control
magnitude is the closed form |psi| = 1/(4 q); a single transport checks
the resulting pi/2 rotation instead of a root search.

Two-qubit gates are compiled from the topological phase of linked control
cycles: a level-k controlled phase diag(1, 1, 1, e^{i 4 pi q^2 Lk / k}),
equal to CZ at k = 4 q^2, conjugated by the Hadamard on the target.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .connection import BlochField, ControlField
from .errors import POSITIVE, ValidationError, at_most, bounded, check, check_fields, count, frozen, guard, unitary
from .holonomy import (
    HolonomyLoop,
    WilsonLine,
    cumulative_midpoint,
    integrate_wilson,
    midpoint_grid,
    rotation_angle,
    wilson_from_samples,
)
from .linking import LinkData, cs_phase
from .shapespace import ShapeLoop

__all__ = [
    "GateSpec",
    "TwoQubitGate",
    "InteractionFrame",
    "make_ellipse_loop",
    "synth_phase_gate",
    "interaction_frame",
    "synth_hadamard_gate",
    "cs_controlled_phase",
    "compile_cnot",
    "gate_fidelity",
    "PHASE_GATE_TARGET",
    "HADAMARD_ROTATION",
    "CANONICAL_HADAMARD",
    "CANONICAL_CNOT",
]

# Target matrices of the synthesised gates.
PHASE_GATE_TARGET = np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)])
HADAMARD_ROTATION = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2)  # exp(-i pi sigma_y / 4)
CANONICAL_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
CANONICAL_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

_SMALL_LOOP_WARN = 0.3
_CALIBRATION_TOL = 1e-6
_MAX_REPETITIONS = 2**22  # a pi/2 gate's matrix_power drifts from unitary by < 6e-10 here, 1.2e-9 at 2**23
SAMPLES = count(8)  # loop samples of make_ellipse_loop, which the CLI tables read
REPETITIONS = count(1, _MAX_REPETITIONS)  # loops of a gate: GateSpec, synth_phase_gate's n_rep and its q count


@dataclass(frozen=True)
class GateSpec:
    """A synthesised single-qubit gate: target, realising loop, bookkeeping."""

    target: np.ndarray
    loop: HolonomyLoop
    repetitions: int = bounded(REPETITIONS)
    residual_abelian: np.ndarray
    calibrated_control: float = 0.0  # |psi| after calibration (0 for pure phase gates)
    transverse: WilsonLine | None = None  # steered gates: V(2 pi) at the calibrated |psi|

    def __post_init__(self):
        t = unitary("gate target", self.target, 2, 1e-12)
        check_fields(self)
        r = unitary("residual abelian factor", self.residual_abelian, 2, 1e-10)
        check("residual abelian factor's off-diagonal |r01| + |r10|", abs(r[0, 1]) + abs(r[1, 0]), at_most(1e-10))
        frozen(self, target=t, residual_abelian=r)

    def integrate(self) -> np.ndarray:
        """Matrix of the full gate: the loop holonomy composed ``repetitions`` times.

        For steered gates this includes the diagonal factor recorded in
        ``residual_abelian``; compare the target against the transverse part
        (via :func:`interaction_frame`) or compensate the residual.
        """
        w = integrate_wilson(self.loop).matrix
        return np.linalg.matrix_power(w, self.repetitions)


@dataclass(frozen=True)
class TwoQubitGate:
    """A 4x4 two-qubit gate and the controlled phase of its |11> branch."""

    matrix: np.ndarray
    phase: float

    def __post_init__(self):
        frozen(self, matrix=unitary("two-qubit gate", self.matrix, 4, 1e-12))


def make_ellipse_loop(theta0: float, a: float, b: float, n_samples: int = 1024) -> ShapeLoop:
    """Small elliptical loop theta = theta0 + a cos s, phi = (b/sin theta0) sin s.

    Refuses ``n_samples`` outside ``SAMPLES``, loops that reach within 1e-6 of a pole or swing pi
    or more either way in azimuth, and a semi-axis a that rounding at theta0 resolves to worse
    than 1e-6 of it; warns for a kept loop whose semi-axes exceed 0.3 (small loops).
    """
    check("n_samples", n_samples, SAMPLES)
    check("base colatitude theta0", theta0, (lambda v: 0.0 < v < math.pi and math.sin(v) > 1e-6,
                                             "strictly between the poles, with sin theta0 above 1e-6"))
    check("semi-axis a", a, (lambda v: 0.0 <= v and 1e-6 <= theta0 - v and theta0 + v <= math.pi - 1e-6,
                             "non-negative, with the ellipse 1e-6 or more from each pole"))
    # an azimuth swing of pi or more would cover the whole circle, and samples alias turns
    check("semi-axis b", b, (lambda v: 0.0 <= v and v / math.sin(theta0) < math.pi,
                             "non-negative, with an azimuth semi-axis b / sin theta0 below pi"))
    b_phi = b / math.sin(theta0)
    s = np.linspace(0.0, 2 * math.pi, n_samples + 1)
    cos_s, sin_s = np.cos(s), np.sin(s)
    theta = theta0 + a * cos_s
    phi = 0.0 + b_phi * sin_s  # 0.0 + turns -0.0 into 0.0
    # A semi-axis far below the base point's spacing of floats rounds away.
    check("semi-axis a's rounding error at the base point", float(np.max(np.abs((theta - theta0) - a * cos_s))),
          at_most(1e-6 * a))
    if max(a, b) > _SMALL_LOOP_WARN:  # only a loop that passes every check
        warnings.warn(f"ellipse semi-axis {max(a, b):.3g} exceeds the small-loop regime (0.3)", stacklevel=2)
    theta[-1] = theta[0]
    phi[-1] = phi[0]
    return ShapeLoop(theta, phi)


def _phase_gate_reps(q: float, n_rep: int | None) -> int:
    if n_rep is not None:
        return check("n_rep", n_rep, REPETITIONS)
    # Smallest repetition count keeping the per-loop semi-axis in the small-loop regime; a product that underflows
    # to 0 asks for infinitely many.
    product = q * _SMALL_LOOP_WARN**2
    loops = 1.0 / product if product else math.inf
    check(f"loop repetitions 1 / (0.09 q) at coupling weight q = {q!r}", loops,
          (lambda v: v <= _MAX_REPETITIONS, f"at most {_MAX_REPETITIONS}; raise q"))
    return max(1, math.ceil(loops))


def synth_phase_gate(
    q: float, n_rep: int | None = None, n_samples: int = 1024, steps: int = 4096
) -> GateSpec:
    """Loop construction for the pi/2 phase rotation about the z axis.

    One loop, an ellipse about the equatorial base point (pi/2, 0), encloses
    a solid angle of pi/(q n_rep); repeating it n_rep times accumulates the
    full pi/2 diagonal rotation.  The construction is leading-order in the
    loop size, with tolerance budget O(area^2) from the small-loop expansion
    plus O(ds^2) from integration.  The gate is itself diagonal, so the
    residual abelian factor is the identity.  n_rep, given or the least that q
    allows in the small-loop regime, must be in ``REPETITIONS``.
    """
    check("coupling weight q", q, POSITIVE)
    reps = _phase_gate_reps(q, n_rep)
    a = b = math.sqrt(1.0 / (q * reps))
    # Traversal sense pinned so the integrated holonomy matches the target
    # diag(e^{-i pi/4}, e^{+i pi/4}) rather than its inverse.
    loop = make_ellipse_loop(math.pi / 2, a, b, n_samples).reversed()
    hloop = HolonomyLoop(loop, BlochField.pinned(), ControlField.zero(), q, steps)
    return GateSpec(
        target=PHASE_GATE_TARGET,
        loop=hloop,
        repetitions=reps,
        residual_abelian=np.eye(2, dtype=complex),
    )


@dataclass(frozen=True)
class InteractionFrame:
    """Rotating-frame transverse generator samples of a holonomy loop.

    ``eta`` is the accumulated diagonal phase q * integral(A) at the
    midpoint grid and ``transverse`` the complex coefficient g(s) of the
    frame-rotated transverse generator (1/2i) [[0, g], [conj(g), 0]].
    """

    eta: np.ndarray
    transverse: np.ndarray
    charge: float
    eta_total: float

    def integrate_transverse(self) -> WilsonLine:
        """Ordered-product holonomy V(2 pi) of the transverse generator alone."""
        return wilson_from_samples(np.zeros(self.eta.size), self.transverse, self.charge)


def interaction_frame(loop: HolonomyLoop) -> InteractionFrame:
    """Transform the loop's transverse generator into the diagonal rotating frame.

    Requires a pinned axis (the regime of the explicit gate constructions),
    where the factorisation W = U_z(2 pi) V(2 pi) holds with V integrated
    from the returned samples.
    """
    if not loop.bloch.is_pinned:
        raise ValidationError("interaction frame is defined for pinned-axis loops")
    s_mid, ds = midpoint_grid(loop.steps)
    a, psi, _ = loop.sample(s_mid)
    eta_end, eta_mid = cumulative_midpoint(a, ds, loop.charge)
    g = psi * np.exp(-1j * eta_mid)
    return InteractionFrame(eta_mid, g, loop.charge, float(eta_end[-1]))


def synth_hadamard_gate(q: float, n_samples: int = 1024, steps: int = 4096) -> GateSpec:
    """Steered-control loop whose transverse holonomy is the y-axis pi/2 rotation.

    Steers the single loop of the phase gate at ``n_samples`` (enclosed
    angle pi/q) with control phase arg psi(s) = pi/2 + eta(s).  The
    rotating-frame samples psi exp(-i eta) then all equal i |psi| to
    round-off, so every step factor of V(2 pi) turns about the same axis,
    the factors commute, and the rotation angle is 2 pi q |psi| exactly up
    to round-off (no discretisation error).  The control magnitude is
    therefore the closed form |psi| = 1/(4 q); one transport checks that the angle of
    V(2 pi) is pi/2 to within 1e-6.  The diagonal factor U_z(2 pi) is
    returned in ``residual_abelian`` for downstream compensation, and V(2 pi)
    itself, as the check transported it, in ``transverse``.

    Raises:
        NumericalError: if the transported rotation angle misses pi/2 by more
            than 1e-6 (or is not finite).
    """
    shape = synth_phase_gate(q, 1, n_samples, steps).loop.shape  # checks q, n_samples and steps first
    # eta(s) = q * integral_0^s A, interpolated between its grid-node values.
    s_mid, ds = midpoint_grid(steps)
    eta_ends, eta_mid = cumulative_midpoint(HolonomyLoop(shape, steps=steps).sample(s_mid).a, ds, q)
    eta_nodes = np.concatenate([[0.0], eta_ends])
    grid = np.linspace(0.0, 2 * math.pi, steps + 1)
    psi_cal = 1.0 / (4.0 * q)
    control = ControlField._from_arrays(
        lambda s: psi_cal * np.exp(1j * (math.pi / 2 + np.interp(s, grid, eta_nodes))),
        check_periodic=False,
    )
    v = wilson_from_samples(np.zeros(steps), control.at(s_mid) * np.exp(-1j * eta_mid), q)
    miss = abs(rotation_angle(v) - math.pi / 2)
    guard("steered transverse rotation's miss of pi/2 at |psi| = 1/(4 q)", miss, at_most(_CALIBRATION_TOL))
    eta_total = float(eta_ends[-1])
    return GateSpec(
        target=HADAMARD_ROTATION,
        loop=HolonomyLoop(shape, BlochField.pinned(), control, q, steps),
        repetitions=1,
        residual_abelian=np.diag([np.exp(1j * eta_total / 2.0), np.exp(-1j * eta_total / 2.0)]),
        calibrated_control=psi_cal,
        transverse=v,
    )


def cs_controlled_phase(q: float, k: int) -> TwoQubitGate:
    """Diagonal controlled-phase gate from the linking phase of a joint cycle.

    The two control cycles link once (Lk = 1).  Each triangle couples with
    charge q when its logical state is |1> and charge 0 for |0>; the |11>
    branch acquires exp(i 4 pi q^2 / k), as no cycle self-links.
    """
    check("charge q", q, POSITIVE)
    link = LinkData.pair(1)
    phases = np.array([cs_phase([qa, qb], link, k) for qa in (0.0, q) for qb in (0.0, q)])  # |00>, ..., |11>
    return TwoQubitGate(np.diag(np.exp(1j * phases)), float(phases[3]))


def compile_cnot(q: float, k: int, hadamard: np.ndarray | None = None) -> TwoQubitGate:
    """CNOT with the first triangle as control, from CZ conjugated by Hadamards.

    ``hadamard`` defaults to the exact y-rotation target; pass an integrated
    gate matrix to compile through the holonomy pipeline.

    Raises:
        ValidationError: if the level does not realise a pi controlled phase.
    """
    cz = cs_controlled_phase(q, k)
    check(f"controlled phase of level k = {k}", cz.phase, (lambda v: abs(v - math.pi) <= 1e-9,
                                                           "pi to within 1e-9; choose k = 4 q^2"))
    u_h = HADAMARD_ROTATION if hadamard is None else np.asarray(hadamard, dtype=complex)
    h_b = u_h @ np.diag([1.0, -1.0])  # canonical Hadamard on the target qubit
    one_h = np.kron(np.eye(2), h_b)
    matrix = one_h @ cz.matrix @ one_h.conj().T
    return TwoQubitGate(matrix, cz.phase)


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant gate fidelity |Tr(u^dag v)| / dim."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("gate fidelity needs two square matrices of equal dimension")
    for m in (u, v):
        unitary("unitary fidelity input", m, len(m), 1e-9)
    return float(abs(np.trace(u.conj().T @ v)) / u.shape[0])
