"""Cs-trimer demonstrator estimates: operating window, drive mapping, readout.

Energies are carried as angular frequencies (energy over hbar, rad/s), so
the adiabaticity comparison "splitting << hbar / T_loop << gap" reads
``splitting << 1 / T_loop << gap`` with 1/T_loop in rad/s.  The "<<" is
operationalised as a configurable factor (default 10).

The default parameter set is a consistent instance of the demonstrator's
stated operating ranges (loop time 1 us, gap 2 pi x 10 MHz, residual
splitting 2 pi x 10 kHz, lifetime 50 us, bond length 0.1 um), not a
tabulated reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .holonomy import HolonomyLoop, integrate_wilson
from .shapespace import ShapeLoop, shape_angles, solid_angle
from .trimer import _body_positions

__all__ = [
    "PlatformParams",
    "WindowReport",
    "ErrorBudget",
    "DriveLoopResult",
    "RamseyResult",
    "adiabatic_window",
    "leakage_estimate",
    "drive_to_loop",
    "gate_budget",
    "ramsey_echo",
]


@dataclass(frozen=True)
class PlatformParams:
    """Demonstrator operating point (SI units; energies as rad/s)."""

    e_a: float = 2 * math.pi * 15.0e6  # breathing-mode energy / hbar
    e_e1: float = 2 * math.pi * (5.0e6 - 5.0e3)  # lower doublet mode
    e_e2: float = 2 * math.pi * (5.0e6 + 5.0e3)  # upper doublet mode
    t_loop: float = 1.0e-6  # single-loop duration (s)
    tau_r: float = 50.0e-6  # Rydberg lifetime (s)
    r0: float = 1.0e-7  # equilibrium bond length (m)
    epsilon: float = 0.05  # drive amplitude fraction
    phi: float = 0.0  # drive relative phase (rad); 0 is the maximal-area point
    n_rep: int = 10  # loop repetitions per gate
    charge: float = 100.0  # coupling weight of the encoded doublet

    def __post_init__(self):
        for name in ("e_a", "e_e1", "e_e2", "t_loop", "tau_r", "r0", "charge"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive")
        if not 0 <= self.epsilon < 0.5:
            raise ValidationError("drive amplitude fraction must satisfy 0 <= epsilon < 0.5")
        if self.n_rep < 1:
            raise ValidationError("n_rep must be at least 1")

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


def adiabatic_window(params: PlatformParams, factor: float = 10.0) -> WindowReport:
    """Check splitting << 1/T_loop << gap with the given margin factor.

    Raises:
        ValidationError: mode ordering violated (gap <= 0).
    """
    gap = params.gap
    if gap <= 0:
        raise ValidationError("mode ordering violated: breathing mode below the doublet mean")
    rate = 1.0 / params.t_loop
    splitting = params.splitting
    ratio_lower = rate / splitting if splitting > 0 else math.inf
    ratio_upper = gap / rate
    return WindowReport(
        passed=(ratio_lower >= factor and ratio_upper >= factor),
        gap=gap,
        splitting=splitting,
        ratio_lower=ratio_lower,
        ratio_upper=ratio_upper,
        factor=factor,
    )


def leakage_estimate(params: PlatformParams) -> float:
    """Per-loop leakage probability (1 / (T_loop * gap))^2 out of the doublet."""
    gap = params.gap
    if gap <= 0:
        raise ValidationError("mode ordering violated: breathing mode below the doublet mean")
    try:
        leak = (1.0 / (params.t_loop * gap)) ** 2
        if math.isfinite(leak):
            return leak
    except (OverflowError, ZeroDivisionError):
        pass
    raise NumericalError(f"leakage estimate overflows: T_loop * gap = {params.t_loop * gap:.3g}")


@dataclass(frozen=True)
class DriveLoopResult:
    """Shape loop generated by the bond-modulation drive."""

    loop: ShapeLoop
    apex_compensation: np.ndarray  # the co-modulation series of the third bond
    enclosed_angle: float
    breathing: float  # max relative preshape-size variation over the cycle


def drive_to_loop(params: PlatformParams, n_samples: int = 1024) -> DriveLoopResult:
    """Map the two-bond modulation with apex compensation to a closed shape loop.

    dR1 = eps R0 cos(Omega t), dR2 = eps R0 sin(Omega t + phi), and the
    third bond takes dR3 = -(dR1 + dR2), which cancels the size (breathing)
    response to first order in the amplitude; the residual variation is
    verified to stay within a 10 eps^2 bound.
    """
    eps, r0 = params.epsilon, params.r0
    t = np.linspace(0.0, params.t_loop, n_samples + 1)
    omega = 2 * math.pi / params.t_loop
    dr1 = eps * r0 * np.cos(omega * t)
    dr2 = eps * r0 * np.sin(omega * t + params.phi)
    dr3 = -(dr1 + dr2)
    masses = np.ones(3)
    body = _body_positions(r0 + dr3, r0 + dr1, r0 + dr2, masses)
    theta, phi = shape_angles(body, masses)
    # Bonds are exactly periodic; snap the closing sample to kill round-off.
    theta[-1] = theta[0]
    phi[-1] = phi[0] + 2 * math.pi * round((phi[-1] - phi[0]) / (2 * math.pi))
    loop = ShapeLoop.from_samples(theta, phi)
    size = np.sqrt(np.einsum("i,tij->t", masses, body**2))
    breathing = float((size.max() - size.min()) / size.mean()) if eps > 0 else 0.0
    if eps > 0 and not breathing <= 10.0 * eps**2:
        raise NumericalError(
            f"breathing suppression failed: relative size variation {breathing:.3e} "
            f"exceeds 10 eps^2 = {10 * eps**2:.3e}"
        )
    return DriveLoopResult(loop, dr3, solid_angle(loop), breathing)


@dataclass(frozen=True)
class ErrorBudget:
    """Leading error channels of one holonomic gate."""

    p_leak: float  # per-gate non-adiabatic leakage
    p_decay: float  # radiative decay over the gate time
    phase_drift: float  # un-echoed dynamical phase, radians
    total_infidelity_estimate: float

    def __post_init__(self):
        for name in ("p_leak", "p_decay", "total_infidelity_estimate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")


def gate_budget(params: PlatformParams, contingency: float = 1.0) -> ErrorBudget:
    """Error budget for a gate of n_rep loops.

    p_decay = 1 - exp(-T_gate / tau_R); leakage uses the per-loop estimate
    times n_rep (leading-order union bound); phase_drift is the pre-echo
    dynamical phase splitting * T_gate, and NumericalError is raised when it
    is not finite.  ``contingency`` is a documented multiplicative allowance
    for unmodelled channels (stray fields, waveform noise) applied to the total.
    """
    if not contingency >= 1.0:
        raise ValidationError("contingency factor cannot be below 1")
    t_gate = params.n_rep * params.t_loop
    p_decay = 1.0 - math.exp(-t_gate / params.tau_r)
    p_leak = min(1.0, params.n_rep * leakage_estimate(params))
    phase_drift = params.splitting * t_gate
    if not math.isfinite(phase_drift):
        raise NumericalError(f"phase drift is not finite: splitting x gate time = {phase_drift}")
    total = min(1.0, (1.0 - (1.0 - p_decay) * (1.0 - p_leak)) * contingency)
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


def _reconstruct(amps, prep_phases) -> tuple[float, float, float]:
    """(doubled phase, geometric phase, trace) from echo fringe amplitudes."""
    # Each echo fringe amplitude carries arg = -(doubled_phase + prep phase).
    unit = sum(np.exp(1j * (-(np.angle(a) + prep))) for a, prep in zip(amps, prep_phases))
    doubled = float(np.angle(unit))
    geometric = 0.5 * doubled
    return doubled, geometric, 2.0 * math.cos(0.5 * geometric)


def ramsey_echo(
    loop: HolonomyLoop,
    delta_e: float,
    params: PlatformParams,
    echo: bool = True,
    scan_count: int = 8,
    prep_phases: tuple[float, float] = (0.0, math.pi / 2),
) -> RamseyResult:
    """Simulate the five-step interferometric readout of a loop holonomy.

    Sequence: (i) pi/2 preparation pulse; (ii) loop holonomy with the
    dynamical phase exp(-i delta_e T_loop sigma_z / 2); (iii) ideal pi swap
    (sigma_x); (iv) reversed-loop holonomy, taken as W^dagger (the exact
    inverse, see :meth:`HolonomyLoop.reversed`), with the second dynamical phase;
    (v) closing pi/2 pulse whose axis phase is scanned to record the fringe.
    The swap and loop reversal cancel the dynamical phase while doubling
    the geometric one, but only when W commutes with sigma_z (a diagonal W,
    as for a pinned loop with zero control); two linearly independent
    preparations pin the doubled phase, from which the per-traversal
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
    if scan_count < 3:
        raise ValidationError("need at least 3 scan phases to extract the fringe harmonic")
    w = integrate_wilson(loop).matrix
    w_rev = w.conj().T
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    scan = 2 * math.pi * np.arange(scan_count) / scan_count

    def block_for(splitting: float) -> np.ndarray:
        dyn = splitting * params.t_loop
        d = np.diag([np.exp(-0.5j * dyn), np.exp(0.5j * dyn)])
        return d @ w_rev @ swap @ d @ w if echo else d @ w @ d @ w

    pops, amps = _fringe_record(block_for(delta_e), prep_phases, scan)
    if echo:
        doubled, geometric, trace = _reconstruct(amps, prep_phases)
        _, amps_shifted = _fringe_record(block_for(2.0 * delta_e), prep_phases, scan)
        _, _, trace_shifted = _reconstruct(amps_shifted, prep_phases)
        if not abs(trace_shifted - trace) <= 1e-6:
            raise NumericalError(
                "echo failed to cancel the dynamical phase: reconstructed trace moved by "
                f"{abs(trace_shifted - trace):.2e} under a doubled splitting"
            )
    else:
        doubled = geometric = trace = math.nan
    return RamseyResult(
        scan_phases=scan,
        populations=pops,
        prep_phases=tuple(float(p) for p in prep_phases),
        fringe_amplitudes=tuple(complex(a) for a in amps),
        doubled_phase=doubled,
        geometric_phase=geometric,
        reconstructed_trace=trace,
        contrast=float(2.0 * np.mean(np.abs(amps))),
        echo=echo,
    )
