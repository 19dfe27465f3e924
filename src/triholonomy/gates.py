"""Holonomic gate synthesis: single-qubit loops and the linked two-qubit gates.

Single-qubit gates come from small elliptical loops around an equatorial
base point of the shape sphere in the pinned-axis regime.  A loop of
semi-axes (a, b) encloses the solid angle ~pi a b, and the diagonal
transport angle is the coupling weight times half the enclosed angle, so
``a b = 1/q`` realises a pi/2 phase rotation.  The Hadamard-type gate keeps
the same loop but steers the control phase against the accumulated
diagonal phase so the interaction-picture transverse generator stays
aligned with one equatorial axis.

Two-qubit gates are compiled from the topological phase of linked control
cycles: a level-k controlled phase diag(1, 1, 1, e^{i 4 pi q^2 Lk / k}),
equal to CZ at k = 4 q^2, conjugated by the Hadamard on the target.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .connection import BlochField, ControlField
from .errors import NumericalError, ValidationError
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


@dataclass(frozen=True)
class GateSpec:
    """A synthesised single-qubit gate: target, realising loop, bookkeeping."""

    target: np.ndarray
    loop: HolonomyLoop
    repetitions: int
    residual_abelian: np.ndarray
    calibrated_control: float = 0.0  # |psi| after calibration (0 for pure phase gates)

    def __post_init__(self):
        t = np.asarray(self.target, dtype=complex)
        if np.linalg.norm(t.conj().T @ t - np.eye(t.shape[0])) > 1e-12:
            raise ValidationError("gate target must be unitary to 1e-12")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be at least 1")
        r = np.asarray(self.residual_abelian, dtype=complex)
        if np.linalg.norm(r.conj().T @ r - np.eye(2)) > 1e-10 or abs(r[0, 1]) + abs(r[1, 0]) > 1e-10:
            raise ValidationError("residual abelian factor must be a diagonal unitary")
        t.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "residual_abelian", r)

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
    """A 4x4 two-qubit gate with its topological phase data."""

    matrix: np.ndarray
    phase: float
    level: int
    charges: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4) or np.linalg.norm(m.conj().T @ m - np.eye(4)) > 1e-12:
            raise ValidationError("two-qubit gate must be a 4x4 unitary to 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def make_ellipse_loop(
    theta0: float, phi0: float, a: float, b: float, n_samples: int = 1024
) -> ShapeLoop:
    """Small elliptical loop theta = theta0 + a cos s, phi = phi0 + (b/sin theta0) sin s.

    Warns for semi-axes above 0.3 (the small-loop regime) and refuses loops
    that reach within 1e-6 of a pole.
    """
    if not 0.0 < theta0 < math.pi:
        raise ValidationError("base colatitude must lie strictly between the poles")
    if math.sin(theta0) <= 1e-6:
        raise ValidationError("base point too close to a pole (sin theta0 <= 1e-6)")
    if a < 0 or b < 0:
        raise ValidationError("semi-axes must be non-negative")
    if max(a, b) > _SMALL_LOOP_WARN:
        warnings.warn(
            f"ellipse semi-axis {max(a, b):.3f} exceeds the small-loop regime (0.3)",
            stacklevel=2,
        )
    if theta0 + a > math.pi - 1e-6 or theta0 - a < 1e-6:
        raise ValidationError("ellipse reaches within 1e-6 of a pole")
    s = np.linspace(0.0, 2 * math.pi, n_samples + 1)
    theta = theta0 + a * np.cos(s)
    phi = phi0 + (b / math.sin(theta0)) * np.sin(s)
    theta[-1] = theta[0]
    phi[-1] = phi[0] + 0.0
    return ShapeLoop(theta, phi)


def _phase_gate_reps(q: float, n_rep: int | None) -> int:
    if n_rep is not None:
        if n_rep < 1:
            raise ValidationError("repetitions must be at least 1")
        return int(n_rep)
    # Smallest repetition count keeping the per-loop semi-axis in the small-loop regime.
    return max(1, math.ceil(1.0 / (q * _SMALL_LOOP_WARN**2)))


def synth_phase_gate(
    q: float,
    n_rep: int | None = None,
    theta0: float = math.pi / 2,
    n_samples: int = 1024,
    steps: int = 4096,
) -> GateSpec:
    """Loop construction for the pi/2 phase rotation about the z axis.

    One loop encloses a solid angle of pi/(q n_rep); repeating it n_rep
    times accumulates the full pi/2 diagonal rotation.  The construction is
    leading-order in the loop size, with tolerance budget O(area^2) from
    the small-loop expansion plus O(ds^2) from integration.  The gate is
    itself diagonal, so the residual abelian factor is the identity.
    """
    if not q > 0:
        raise ValidationError("coupling weight q must be positive")
    reps = _phase_gate_reps(q, n_rep)
    a = b = math.sqrt(1.0 / (q * reps))
    # Traversal sense pinned so the integrated holonomy matches the target
    # diag(e^{-i pi/4}, e^{+i pi/4}) rather than its inverse.
    loop = make_ellipse_loop(theta0, 0.0, a, b, n_samples).reversed()
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

    params: np.ndarray
    eta: np.ndarray
    transverse: np.ndarray
    charge: float
    eta_total: float

    def matrices(self) -> np.ndarray:
        """The sampled generators as 2x2 matrices (z-components identically zero)."""
        g = self.transverse
        out = np.zeros((g.size, 2, 2), dtype=complex)
        out[:, 0, 1] = g / 2j
        out[:, 1, 0] = np.conj(g) / 2j
        return out

    def abelian_factor(self) -> np.ndarray:
        """U_z(2 pi) = diag(e^{i eta_T / 2}, e^{-i eta_T / 2})."""
        return np.diag(
            [
                np.exp(1j * self.eta_total / 2.0),
                np.exp(-1j * self.eta_total / 2.0),
            ]
        )

    def integrate_transverse(self) -> WilsonLine:
        """Ordered-product holonomy V(2 pi) of the transverse generator alone."""
        return wilson_from_samples(np.zeros(self.params.size), self.transverse, self.charge)


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
    return InteractionFrame(s_mid, eta_mid, g, loop.charge, float(eta_end[-1]))


def synth_hadamard_gate(
    q: float,
    n_samples: int = 1024,
    steps: int = 4096,
    calibration_tol: float = 1e-6,
) -> GateSpec:
    """Steered-control loop whose transverse holonomy is the y-axis pi/2 rotation.

    Uses the same elliptical loop as the phase gate (enclosed angle pi/q)
    with control phase arg psi(s) = pi/2 + eta(s), which keeps the
    rotating-frame transverse generator aligned with one equatorial axis.
    The control magnitude is calibrated by root bisection so the rotation
    angle of V(2 pi) equals pi/2 to ``calibration_tol``; the leading-order
    seed is |psi| = 1/(4 q).  The diagonal factor U_z(2 pi) is returned in
    ``residual_abelian`` for downstream compensation.

    Raises:
        NumericalError: if the required |psi| exceeds the weak-coupling
            bound 1/(pi q) within which the trace expansion contracts.
    """
    if not q > 0:
        raise ValidationError("coupling weight q must be positive")
    a = b = math.sqrt(1.0 / q)
    shape = make_ellipse_loop(math.pi / 2, 0.0, a, b, n_samples).reversed()
    # eta(s) = q * integral_0^s A, interpolated between its grid-node values.
    s_mid, ds = midpoint_grid(steps)
    eta_ends, _ = cumulative_midpoint(HolonomyLoop(shape).sample(s_mid).a, ds, q)
    eta_nodes = np.concatenate([[0.0], eta_ends])
    grid = np.linspace(0.0, 2 * math.pi, steps + 1)

    def loop_for(psi_abs: float) -> HolonomyLoop:
        control = ControlField._from_arrays(
            lambda s: psi_abs * np.exp(1j * (math.pi / 2 + np.interp(s, grid, eta_nodes))),
            check_periodic=False,
        )
        return HolonomyLoop(shape, BlochField.pinned(), control, q, steps)

    def angle_error(psi_abs: float) -> float:
        v = interaction_frame(loop_for(psi_abs)).integrate_transverse()
        return rotation_angle(v) - math.pi / 2

    psi_max = 1.0 / (math.pi * q)
    seed = 1.0 / (4.0 * q)
    lo, hi = 0.5 * seed, min(1.5 * seed, psi_max)
    if angle_error(lo) * angle_error(hi) > 0:
        lo, hi = 0.0, psi_max
        if angle_error(hi) < 0:
            raise NumericalError(
                f"steering infeasible: rotation angle pi/2 needs |psi| > {psi_max:.4g} "
                "(weak-coupling bound exceeded)"
            )
    psi_cal = float(brentq(angle_error, lo, hi, xtol=calibration_tol))
    loop = loop_for(psi_cal)
    return GateSpec(
        target=HADAMARD_ROTATION,
        loop=loop,
        repetitions=1,
        residual_abelian=interaction_frame(loop).abelian_factor(),
        calibrated_control=psi_cal,
    )


def cs_controlled_phase(q: float, k: int, lk: int = 1, slk=(0, 0)) -> TwoQubitGate:
    """Diagonal controlled-phase gate from the linking phase of a joint cycle.

    Each triangle couples with charge q when its logical state is |1> and
    charge 0 for |0>; the |11> branch acquires exp(i 4 pi q^2 Lk / k) (plus
    declared self-linking contributions on any branch with charge).
    """
    if not q > 0:
        raise ValidationError("charge q must be positive")
    link = LinkData.pair(lk, slk)
    charge_table = ((0.0, q), (0.0, q))  # per logical state, per triangle
    phases = np.empty(4)
    for idx, (alpha, beta) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        qa = charge_table[0][alpha]
        qb = charge_table[1][beta]
        phases[idx] = cs_phase([qa, qb], link, k)
    matrix = np.diag(np.exp(1j * phases))
    return TwoQubitGate(matrix, float(phases[3]), k, charge_table)


def compile_cnot(q: float, k: int, hadamard: np.ndarray | None = None) -> TwoQubitGate:
    """CNOT with the first triangle as control, from CZ conjugated by Hadamards.

    ``hadamard`` defaults to the exact y-rotation target; pass an integrated
    gate matrix to compile through the holonomy pipeline.

    Raises:
        ValidationError: if the level does not realise a pi controlled phase.
    """
    cz = cs_controlled_phase(q, k)
    if abs(cz.phase - math.pi) > 1e-9:
        raise ValidationError(
            f"level k = {k} gives controlled phase {cz.phase:.6f}, not pi; choose k = 4 q^2"
        )
    u_h = HADAMARD_ROTATION if hadamard is None else np.asarray(hadamard, dtype=complex)
    h_b = u_h @ np.diag([1.0, -1.0])  # canonical Hadamard on the target qubit
    one_h = np.kron(np.eye(2), h_b)
    matrix = one_h @ cz.matrix @ one_h.conj().T
    return TwoQubitGate(matrix, cz.phase, k, cz.charges)


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-invariant gate fidelity |Tr(u^dag v)| / dim."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("gate fidelity needs two square matrices of equal dimension")
    for m in (u, v):
        if np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) > 1e-9:
            raise ValidationError("gate fidelity inputs must be unitary")
    return float(abs(np.trace(u.conj().T @ v)) / u.shape[0])
