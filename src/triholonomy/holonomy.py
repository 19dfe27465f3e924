"""Wilson lines, holonomy traces, and the transverse trace expansion.

The transport solved here is

    dU/ds = -q A_full(s) U(s),    U(0) = 1,

with ``A_full`` the anti-Hermitian connection sample of
:mod:`triholonomy.connection`.  The integrator is an ordered product of
per-segment closed-form SU(2) exponentials with midpoint-sampled
connection, so every step is exactly special-unitary and the global error
is O(ds^2).  The per-step factors are combined by a fixed-order tree
reduction, which keeps the evaluation deterministic and fast.

``dyson_trace`` evaluates the trace of the loop holonomy by treating the
diagonal part of the transport exactly and expanding in the transverse
coupling: with eigenframe rates (c, j) and eta(s) the accumulated diagonal
phase, the interaction-picture amplitude obeys

    F(s) = 1 - (1/4) int_0^s ds1 int_0^s1 ds2  g(s1) conj(g)(s2) F(s2),
    g(s) = j(s) e^{-i eta(s)},

and  Tr W = 2 Re[ e^{i eta(T)/2} F(T) ].  The reported corrections are the
|psi|^2- and |psi|^4-order terms of the iterated solution, normalised so
that  Tr W = 2 cos(eta(T)/2) (1 - I2 + I4 + ...)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .connection import (
    BlochField,
    ControlField,
    GaugePatch,
    LoopSamples,
    connection_vectors,
    eigenframe_rate_samples,
    monopole_potential,
)
from .errors import NumericalError, ValidationError
from .shapespace import ShapeLoop, TriangleConfig

__all__ = [
    "WilsonLine",
    "HolonomyLoop",
    "TraceExpansion",
    "integrate_wilson",
    "transport_segment",
    "wilson_from_samples",
    "wilson_from_rates",
    "midpoint_grid",
    "cumulative_midpoint",
    "holonomy_trace",
    "dyson_trace",
    "trace_expansion_from_rates",
    "rotation_angle",
    "effective_angular_momentum",
]


@dataclass(frozen=True)
class WilsonLine:
    """A 2x2 special-unitary transport matrix with its coupling weight."""

    matrix: np.ndarray
    charge: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValidationError("Wilson line must be 2x2")
        if not np.linalg.norm(m.conj().T @ m - np.eye(2)) <= 1e-10:
            raise ValidationError("Wilson line is not unitary to 1e-10")
        if not abs(np.linalg.det(m) - 1.0) <= 1e-10:
            raise ValidationError("Wilson line determinant differs from 1 beyond 1e-10")
        if not self.charge > 0:
            raise ValidationError("charge must be positive")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        tr = np.trace(self.matrix)
        if not abs(tr.imag) <= 1e-8:
            raise NumericalError(f"SU(2) trace acquired an imaginary part ({tr.imag:.3e})")
        return float(tr.real)

    def inverse(self) -> "WilsonLine":
        return WilsonLine(self.matrix.conj().T, self.charge)

    def then(self, other: "WilsonLine") -> "WilsonLine":
        """Composition: ``other`` transported after ``self``."""
        return WilsonLine(other.matrix @ self.matrix, self.charge)


@dataclass(frozen=True)
class HolonomyLoop:
    """A shape loop equipped with gauge data and integration resolution."""

    shape: ShapeLoop
    bloch: BlochField = field(default_factory=BlochField.pinned)
    control: ControlField = field(default_factory=ControlField.zero)
    charge: float = 1.0
    steps: int = 1024
    patch: GaugePatch = GaugePatch.NORTH

    def __post_init__(self):
        if self.steps < 8:
            raise ValidationError("holonomy integration needs at least 8 steps")
        if not self.charge > 0:
            raise ValidationError("charge must be positive")

    def with_steps(self, steps: int) -> "HolonomyLoop":
        return HolonomyLoop(self.shape, self.bloch, self.control, self.charge, steps, self.patch)

    def reversed(self) -> "HolonomyLoop":
        """Loop traversed backwards, with the control played back in reverse.

        For a pinned axis the control is the transverse one-form component
        per unit parameter, so reversal negates it along with the tangent;
        for analytic fields the axis-motion factor flips instead and the
        control value is kept.  Either way the reversed holonomy is the
        exact inverse of the forward one at any step count.
        """
        ctrl = self.control
        sign = -1.0 if self.bloch.is_pinned else 1.0
        rev_psi = ControlField._from_arrays(
            lambda s: sign * ctrl.at(2 * math.pi - s), check_periodic=False
        )
        return HolonomyLoop(
            self.shape.reversed(),
            self.bloch,
            rev_psi,
            self.charge,
            self.steps,
            self.patch,
        )

    def sample(self, s) -> LoopSamples:
        """Transport data (A, psi, axis data) at an array of loop parameters."""
        th, ph = self.shape.at(s)
        dth, dph = self.shape.tangent(s)
        axis = None
        if not self.bloch.is_pinned:
            axis = self.bloch.angle_samples(np.clip(th, 0.0, math.pi), ph % (2 * math.pi), dth, dph)
        return LoopSamples(monopole_potential(th, dph, self.patch), self.control.at(s), axis)


def su2_exponentials(vectors: np.ndarray, factor: float) -> np.ndarray:
    """Closed-form stack of exp(i (factor/2) v . sigma) for rows v of ``vectors``."""
    v = np.atleast_2d(vectors)
    norms = np.linalg.norm(v, axis=1)
    half = 0.5 * factor * norms
    cos = np.cos(half)
    scale = np.where(norms > 0.0, np.sin(half) / np.where(norms > 0.0, norms, 1.0), 0.5 * factor)
    kx, ky, kz = (scale * v[:, 0], scale * v[:, 1], scale * v[:, 2])
    out = np.empty((v.shape[0], 2, 2), dtype=complex)
    out[:, 0, 0] = cos + 1j * kz
    out[:, 0, 1] = 1j * kx + ky
    out[:, 1, 0] = 1j * kx - ky
    out[:, 1, 1] = cos - 1j * kz
    return out


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product M_{N-1} ... M_1 M_0 by pairwise tree reduction."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        paired = np.matmul(mats[1 : 2 * (n // 2) : 2], mats[0 : 2 * (n // 2) : 2])
        if n % 2:
            paired = np.concatenate([paired, mats[-1:]], axis=0)
        mats = paired
    return mats[0]


def midpoint_grid(n_steps: int, s0: float = 0.0, s1: float = 2 * math.pi) -> tuple[np.ndarray, float]:
    """Midpoints of a uniform partition of [s0, s1] into ``n_steps`` cells, and the cell width."""
    ds = (s1 - s0) / n_steps
    return s0 + (np.arange(n_steps) + 0.5) * ds, ds


def cumulative_midpoint(values: np.ndarray, ds: float, weight: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Ordered integral ``weight * int values`` of midpoint samples on a uniform grid.

    Returns the composite-midpoint values at each cell end and at each
    midpoint (half-cell ends).
    """
    ends = np.cumsum(values) * ds * weight
    return ends, ends - 0.5 * values * ds * weight


def _wilson_line(vecs: np.ndarray, charge: float, ds: float) -> WilsonLine:
    """Ordered product of the step exponentials of sampled connection vectors."""
    return WilsonLine(ordered_product(su2_exponentials(vecs, charge * ds)), charge)


def integrate_wilson(loop: HolonomyLoop) -> WilsonLine:
    """Holonomy of a closed loop as an ordered product of SU(2) step factors."""
    s_mid, ds = midpoint_grid(loop.steps)
    return _wilson_line(connection_vectors(loop.sample(s_mid), loop.bloch), loop.charge, ds)


def transport_segment(loop: HolonomyLoop, s0: float, s1: float, n_steps: int) -> np.ndarray:
    """Open-path transport matrix over the parameter range [s0, s1] of a loop."""
    if not s1 > s0:
        raise ValidationError("segment must have positive parameter extent")
    s_mid, ds = midpoint_grid(n_steps, s0, s1)
    return _wilson_line(connection_vectors(loop.sample(s_mid), loop.bloch), loop.charge, ds).matrix


def wilson_from_samples(abelian, control, charge: float) -> WilsonLine:
    """Transport a pinned-frame connection given as sampled rate data.

    ``abelian`` and ``control`` sample the diagonal coefficient A(s) and the
    complex transverse coefficient psi(s) at the midpoints of a uniform
    partition of [0, 2 pi] (see :func:`midpoint_grid`).
    """
    a = np.asarray(abelian, dtype=float)
    psi = np.asarray(control, dtype=complex)
    if a.ndim != 1 or a.size == 0 or psi.shape != a.shape:
        raise ValidationError("rate samples must be non-empty 1-d arrays of equal length")
    vecs = np.stack([psi.real, -psi.imag, a], axis=1)
    return _wilson_line(vecs, charge, 2 * math.pi / a.size)


def wilson_from_rates(abelian, control, charge: float, n_steps: int = 4096) -> WilsonLine:
    """Transport a pinned-frame connection given directly as rate data.

    ``abelian`` maps s to the diagonal coefficient A(s); ``control`` maps s
    to the complex transverse coefficient psi(s).  Both are scalar callables,
    evaluated once per midpoint sample.  This is the entry point for
    gauge-rotation experiments, where (A, psi) are manipulated as data
    rather than derived from loop geometry.
    """
    s_mid, _ = midpoint_grid(n_steps)
    a = np.vectorize(abelian, otypes=[float])(s_mid)
    psi = np.vectorize(control, otypes=[complex])(s_mid)
    return wilson_from_samples(a, psi, charge)


def holonomy_trace(loop: HolonomyLoop) -> float:
    """Real trace of the loop holonomy (the imaginary part must vanish)."""
    return integrate_wilson(loop).trace


@dataclass(frozen=True)
class TraceExpansion:
    """Trace of a loop holonomy split into abelian phase and transverse corrections."""

    abelian_angle: float
    corrections: tuple[float, ...]
    trace_estimate: float

    def __post_init__(self):
        signs = (-1.0, 1.0)  # 1 - I2 + I4
        composed = 2.0 * math.cos(self.abelian_angle) * (
            1.0 + sum(s * c for s, c in zip(signs, self.corrections))
        )
        if not abs(composed - self.trace_estimate) <= 1e-12:
            raise ValidationError("trace estimate does not compose from its corrections")

    @property
    def order(self) -> int:
        return 2 * len(self.corrections)


def trace_expansion_from_rates(
    c: np.ndarray, j: np.ndarray, order: int = 2
) -> TraceExpansion:
    """Trace expansion from eigenframe rate samples on a uniform midpoint grid.

    ``c`` and ``j`` sample the diagonal and transverse transport rates at
    the midpoints of a uniform partition of [0, 2 pi].  All ordered
    integrals use the composite midpoint rule.

    Raises:
        NumericalError: the quadratic correction exceeds the contraction
            bound |I2| < 0.5, or the abelian angle sits at a trace zero.
    """
    if order not in (2, 4):
        raise ValidationError("expansion order must be 2 or 4")
    c = np.asarray(c, dtype=float)
    j = np.asarray(j, dtype=complex)
    ds = 2 * math.pi / c.size

    # Accumulated diagonal phase at midpoints (composite midpoint rule).
    eta_end, eta_mid = cumulative_midpoint(c, ds)
    eta_total = eta_end[-1]
    g = j * np.exp(-1j * eta_mid)

    inner_gbar = cumulative_midpoint(np.conj(g), ds)[1]
    c2_at = -0.25 * cumulative_midpoint(g * inner_gbar, ds)[1]
    c2 = -0.25 * ds * complex(np.sum(g * inner_gbar))

    half_cos = math.cos(0.5 * eta_total)
    phase = complex(math.cos(0.5 * eta_total), math.sin(0.5 * eta_total))
    if not abs(half_cos) >= 1e-12:
        raise NumericalError("abelian angle sits at a trace zero; expansion is ill-conditioned")

    i2 = -float((phase * c2).real) / half_cos
    if not abs(i2) <= 0.5:
        raise NumericalError(
            f"transverse coupling too strong for the expansion to contract (I2 = {i2:.3f})"
        )
    corrections = [i2]
    estimate = 2.0 * half_cos * (1.0 - i2)
    if order == 4:
        inner_gbar_c2 = cumulative_midpoint(np.conj(g) * c2_at, ds)[1]
        c4 = -0.25 * ds * complex(np.sum(g * inner_gbar_c2))
        i4 = float((phase * c4).real) / half_cos
        corrections.append(i4)
        estimate = 2.0 * half_cos * (1.0 - i2 + i4)
    return TraceExpansion(0.5 * eta_total, tuple(corrections), estimate)


def dyson_trace(loop: HolonomyLoop, order: int = 2) -> TraceExpansion:
    """Trace estimate from the diagonal-exact, transverse-expanded transport.

    Args:
        loop: holonomy loop; the expansion converges for weak transverse
            coupling (|I2| < 0.5 is enforced).
        order: 2 or 4, the included power of the transverse coupling.

    Raises:
        NumericalError: when the measured quadratic correction exceeds the
            contraction bound (the message reports it).
    """
    s_mid, _ = midpoint_grid(loop.steps)
    c, j = eigenframe_rate_samples(loop.sample(s_mid), loop.charge)
    return trace_expansion_from_rates(c, j, order)


def rotation_angle(w: WilsonLine) -> float:
    """Qubit rotation angle Theta = 2 arccos(Tr W / 2), principal branch in [0, 2 pi]."""
    half_trace = w.trace / 2.0
    if not abs(half_trace) <= 1.0 + 1e-10:
        raise NumericalError(f"trace magnitude {2 * half_trace:.6f} exceeds 2 beyond tolerance")
    return 2.0 * math.acos(min(1.0, max(-1.0, half_trace)))


def effective_angular_momentum(
    trajectory: list[TriangleConfig], loop_trace: float, period: float
) -> float:
    """Geometric angular-momentum scale of a one-period shape cycle.

    L_eff = 2 (I_avg / T) arccos(loop_trace / 2), with I_avg the time-averaged
    moment of inertia about the time-averaged triangle normal through the
    centroid.
    """
    if period <= 0:
        raise ValidationError("period must be positive")
    if not trajectory:
        raise ValidationError("empty trajectory")
    from .shapespace import _plane_basis  # deterministic normal orientation

    normals = np.array([_plane_basis(cfg.vertices)[2] for cfg in trajectory])
    mean_normal = normals.mean(axis=0)
    norm = np.linalg.norm(mean_normal)
    if norm < 1e-12:
        raise ValidationError("time-averaged normal vanishes")
    mean_normal = mean_normal / norm
    inertias = np.array(
        [
            float(
                cfg.masses
                @ (np.sum(cfg.vertices**2, axis=1) - (cfg.vertices @ mean_normal) ** 2)
            )
            for cfg in trajectory
        ]
    )
    i_avg = float(np.mean(inertias))
    half_trace = min(1.0, max(-1.0, loop_trace / 2.0))
    return 2.0 * (i_avg / period) * math.acos(half_trace)
