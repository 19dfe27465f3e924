"""Cs-trimer demonstrator estimates: operating window, error budget, readout.

Energies are carried as angular frequencies (energy over hbar, rad/s), so
the adiabaticity comparison "splitting << hbar / T_loop << gap" reads
``splitting << 1 / T_loop << gap`` with 1/T_loop in rad/s.  The "<<" is
operationalised as a factor of 10 (``_WINDOW_FACTOR``).

The default parameter set is a consistent instance of the demonstrator's
stated operating ranges (loop time 1 us, gap 2 pi x 10 MHz, residual
splitting 2 pi x 10 kHz, lifetime 50 us), not a tabulated reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FINITE, POSITIVE, NumericalError, at_most, bounded, check, check_fields, count, guard
from .holonomy import HolonomyLoop, integrate_wilson

__all__ = [
    "PlatformParams",
    "WindowReport",
    "ErrorBudget",
    "RamseyResult",
    "adiabatic_window",
    "leakage_estimate",
    "gate_budget",
    "ramsey_echo",
]

_PREP_PHASES = (0.0, math.pi / 2)  # azimuths of the Ramsey readout's two pi/2 preparation pulses
_WINDOW_FACTOR = 10.0  # the margin that "<<" asks of both adiabatic-window ratios
_PROBABILITY = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
SCANS = count(3)  # ramsey_echo's scan phases, three for the fringe harmonic; the CLI's ramsey table reads it


@dataclass(frozen=True)
class PlatformParams:
    """Demonstrator operating point (SI units; energies as rad/s).

    Each field declares its bound here, with :func:`~triholonomy.errors.bounded`, and the CLI's platform
    table reads it: the energies and ``t_loop`` positive and finite, ``tau_r`` positive (inf is no decay),
    ``n_rep`` an int of at least 1.  A field that fails its bound, NaN included, is refused by name
    (ValidationError), and so is a broken mode ordering: ``gap`` must be positive.
    """

    e_a: float = bounded(POSITIVE, 2 * math.pi * 15.0e6)  # breathing-mode energy / hbar
    e_e1: float = bounded(POSITIVE, 2 * math.pi * (5.0e6 - 5.0e3))  # lower doublet mode
    e_e2: float = bounded(POSITIVE, 2 * math.pi * (5.0e6 + 5.0e3))  # upper doublet mode
    t_loop: float = bounded(POSITIVE, 1.0e-6)  # single-loop duration (s)
    tau_r: float = bounded((lambda v: v > 0.0, "positive"), 50.0e-6)  # Rydberg lifetime (s)
    n_rep: int = bounded(count(1, math.inf), 10)  # loop repetitions per gate

    def __post_init__(self):
        check_fields(self)
        check("breathing mode's gap e_a - (e_e1 + e_e2) / 2 above the doublet mean", self.gap,
              (lambda v: v > 0.0, "positive"))

    @property
    def gap(self) -> float:
        """Breathing-to-doublet gap (rad/s)."""
        return self.e_a - 0.5 * (self.e_e1 + self.e_e2)

    @property
    def splitting(self) -> float:
        """Residual doublet splitting (rad/s)."""
        return abs(self.e_e1 - self.e_e2)


@dataclass(frozen=True)
class WindowReport:
    """Adiabaticity-window check with both margin ratios."""

    passed: bool
    gap: float
    splitting: float
    ratio_lower: float  # (1 / T_loop) / splitting, must exceed the factor
    ratio_upper: float  # gap / (1 / T_loop), must exceed the factor
    factor: float


def adiabatic_window(params: PlatformParams) -> WindowReport:
    """Check splitting << 1/T_loop << gap, each ratio at least ``_WINDOW_FACTOR``."""
    gap = params.gap
    rate = 1.0 / params.t_loop
    splitting = params.splitting
    ratio_lower = rate / splitting if splitting > 0 else math.inf
    ratio_upper = gap / rate
    return WindowReport(
        passed=(ratio_lower >= _WINDOW_FACTOR and ratio_upper >= _WINDOW_FACTOR),
        gap=gap,
        splitting=splitting,
        ratio_lower=ratio_lower,
        ratio_upper=ratio_upper,
        factor=_WINDOW_FACTOR,
    )


def leakage_estimate(params: PlatformParams) -> float:
    """Per-loop leakage probability (1 / (T_loop * gap))^2 out of the doublet."""
    try:
        leak = (1.0 / (params.t_loop * params.gap)) ** 2
        if math.isfinite(leak):
            return leak
    except (OverflowError, ZeroDivisionError):
        pass
    raise NumericalError(f"leakage estimate overflows: T_loop * gap = {params.t_loop * params.gap:.3g}")


@dataclass(frozen=True)
class ErrorBudget:
    """Leading error channels of one holonomic gate."""

    p_leak: float = bounded(_PROBABILITY)  # per-gate non-adiabatic leakage
    p_decay: float = bounded(_PROBABILITY)  # radiative decay over the gate time
    phase_drift: float = bounded(FINITE)  # un-echoed dynamical phase, radians
    total_infidelity_estimate: float = bounded(_PROBABILITY)

    def __post_init__(self):
        check_fields(self)


def gate_budget(params: PlatformParams) -> ErrorBudget:
    """Error budget for a gate of n_rep loops.

    p_decay = 1 - exp(-T_gate / tau_R); leakage uses the per-loop estimate
    times n_rep (leading-order union bound); phase_drift is the pre-echo
    dynamical phase splitting * T_gate, and NumericalError is raised when it
    is not finite.
    """
    t_gate = params.n_rep * params.t_loop
    p_decay = 1.0 - math.exp(-t_gate / params.tau_r)
    p_leak = min(1.0, params.n_rep * leakage_estimate(params))
    phase_drift = params.splitting * t_gate
    guard("phase drift splitting x gate time", phase_drift, FINITE)
    total = min(1.0, 1.0 - (1.0 - p_decay) * (1.0 - p_leak))
    return ErrorBudget(p_leak, p_decay, phase_drift, total)


@dataclass(frozen=True)
class RamseyResult:
    """Fringe record and reconstruction of an interferometric loop readout."""

    scan_phases: np.ndarray
    populations: np.ndarray  # (n_prep, n_scan)
    prep_phases: tuple[float, ...]
    fringe_amplitudes: tuple[complex, ...]  # complex first-harmonic per preparation
    doubled_phase: float  # echo-doubled geometric phase, wrapped to (-pi, pi]; nan without echo
    geometric_phase: float  # per-traversal rotation angle estimate; nan without echo
    reconstructed_trace: float  # nan without echo
    contrast: float  # 2 |fringe amplitude|, equatorial-axis projection diagnostic
    echo: bool


def _fringe_record(block: np.ndarray, prep_phases, scan: np.ndarray):
    """Populations (prep, scan) and complex first-harmonic fringe amplitudes per preparation.

    The pi/2 pulse about the equatorial axis at azimuth phi is
    c - i s (cos phi sigma_x + sin phi sigma_y), with c = cos(pi/4) and s = sin(pi/4).
    """
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    prep = np.asarray(prep_phases, dtype=float)
    chi = block @ np.stack([np.full(prep.shape, c, dtype=complex), -1j * s * np.exp(1j * prep)])
    pops = np.abs(c * chi[0][:, None] - 1j * s * np.exp(-1j * scan) * chi[1][:, None]) ** 2
    return pops, 2.0 / scan.size * np.sum(pops * np.exp(1j * scan), axis=1)


def _reconstruct(amps) -> tuple[float, float, float]:
    """(doubled phase, geometric phase, trace) from the echo fringe amplitudes of ``_PREP_PHASES``."""
    # Each echo fringe amplitude carries arg = -(doubled_phase + prep phase).
    unit = sum(np.exp(1j * (-(np.angle(a) + prep))) for a, prep in zip(amps, _PREP_PHASES))
    doubled = float(np.angle(unit))
    geometric = 0.5 * doubled
    return doubled, geometric, 2.0 * math.cos(0.5 * geometric)


def ramsey_echo(
    loop: HolonomyLoop,
    delta_e: float,
    params: PlatformParams,
    echo: bool = True,
    scan_count: int = 8,
) -> RamseyResult:
    """Simulate the five-step interferometric readout of a loop holonomy.

    Sequence: (i) pi/2 preparation pulse; (ii) loop holonomy with the
    dynamical phase exp(-i delta_e T_loop sigma_z / 2); (iii) ideal pi swap
    (sigma_x); (iv) reversed-loop holonomy, taken as W^dagger (the exact
    inverse, see :meth:`HolonomyLoop.reversed`), with the second dynamical phase;
    (v) closing pi/2 pulse whose axis phase is scanned to record the fringe.
    The swap and loop reversal cancel the dynamical phase while doubling
    the geometric one, but only when W commutes with sigma_z (a diagonal W,
    as for a pinned loop with zero control); preparations about x and y
    (``_PREP_PHASES``) pin the doubled phase, from which the per-traversal
    rotation angle and the holonomy trace are reconstructed.  The
    cancellation is verified by re-running the readout arithmetic at the
    doubled splitting, so a W that does not commute with sigma_z fails there.

    With ``echo=False`` the swap and reversal are omitted (the loop and
    dynamical phase simply repeat), leaving the fringe exposed to the
    dynamical drift: the control record for the cancellation claim.

    Raises:
        NumericalError: the echoed geometric signal fails to be independent
            of the splitting to 1e-6 (non-unitary inputs would surface here).
    """
    check("delta_e", delta_e, FINITE)
    check("scan_count", scan_count, SCANS)
    w = integrate_wilson(loop).matrix
    w_rev = w.conj().T
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    scan = 2 * math.pi * np.arange(scan_count) / scan_count

    def block_for(splitting: float) -> np.ndarray:
        dyn = splitting * params.t_loop
        d = np.diag([np.exp(-0.5j * dyn), np.exp(0.5j * dyn)])
        return d @ w_rev @ swap @ d @ w if echo else d @ w @ d @ w

    pops, amps = _fringe_record(block_for(delta_e), _PREP_PHASES, scan)
    if echo:
        doubled, geometric, trace = _reconstruct(amps)
        _, amps_shifted = _fringe_record(block_for(2.0 * delta_e), _PREP_PHASES, scan)
        _, _, trace_shifted = _reconstruct(amps_shifted)
        guard("echo's shift of the reconstructed trace under a doubled splitting", abs(trace_shifted - trace),
              at_most(1e-6))
    else:
        doubled = geometric = trace = math.nan
    return RamseyResult(
        scan_phases=scan,
        populations=pops,
        prep_phases=_PREP_PHASES,
        fringe_amplitudes=tuple(complex(a) for a in amps),
        doubled_phase=doubled,
        geometric_phase=geometric,
        reconstructed_trace=trace,
        contrast=float(2.0 * np.mean(np.abs(amps))),
        echo=echo,
    )
