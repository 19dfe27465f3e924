"""Wilson lines, holonomy traces, and the transverse trace expansion.

The transport solved here is

    dU/ds = -q A_full(s) U(s),    U(0) = 1,

with ``A_full`` the anti-Hermitian connection sample of
:mod:`triholonomy.connection`.  The integrator is an ordered product of
per-segment closed-form SU(2) exponentials with midpoint-sampled
connection, so every step is exactly special-unitary and the global error
is O(ds^2).  Each factor has the unit-quaternion form
U = [[a, b], [-conj(b), conj(a)]], and the factors are combined on their
(a, b) pairs by a fixed-order pairwise tree of elementwise complex
products, which keeps the evaluation deterministic and the result exactly
of that form.  The transport kernel reads the connection component-first:
three arrays (vx, vy, vz), each of shape (..., N), whose leading axes are a
batch, so many Wilson lines of equal step count reduce in one call.  On the
pinned axis n = +z with zero control the steps commute, and ``wilson_from_samples``
transports their sum alone: exp(i (eta/2) sigma_z), eta = q ds sum A.  A loop's
steps are a multiple of its segments, so its midpoints sit at fixed fractions of
each segment; with the shared zero control ``integrate_wilson`` sums A over each
segment's midpoints in closed form.

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
    PINNED_FRAME,
    BlochField,
    ControlField,
    GaugePatch,
    LoopSamples,
    _monopole_segment_sums,
    _samples_at,
    connection_vectors,
    eigenframe_rate_samples,
)
from .errors import (FINITE, POSITIVE, ValidationError, at_most, bounded, check, check_fields, count, frozen, guard,
                     unitary)
from .shapespace import ShapeLoop

__all__ = [
    "WilsonLine",
    "HolonomyLoop",
    "TraceExpansion",
    "integrate_wilson",
    "wilson_from_samples",
    "wilson_from_rates",
    "midpoint_grid",
    "cumulative_midpoint",
    "holonomy_trace",
    "dyson_trace",
    "trace_expansion_from_rates",
    "rotation_angle",
]

STEPS = count(8)  # midpoint steps of a transport, which HolonomyLoop, wilson_from_rates and the CLI tables read


@dataclass(frozen=True)
class WilsonLine:
    """A 2x2 special-unitary transport matrix, checked to 1e-10 and read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        m = unitary("Wilson line", self.matrix, 2, 1e-10)
        check("Wilson line's |det W - 1|", abs(np.linalg.det(m) - 1.0), at_most(1e-10))
        frozen(self, matrix=m)

    @property
    def trace(self) -> float:
        """Real part of the trace; its imaginary part is of the order of the 1e-10 checks above."""
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class HolonomyLoop:
    """A shape loop with gauge data and integration resolution; ``charge`` and ``steps`` declare their bounds."""

    shape: ShapeLoop
    bloch: BlochField = field(default_factory=BlochField.pinned)
    control: ControlField = field(default_factory=ControlField.zero)
    charge: float = bounded(POSITIVE, 1.0)
    steps: int = bounded(STEPS, 1024)
    patch: GaugePatch = GaugePatch.NORTH

    def __post_init__(self):
        check_fields(self)
        n = self.shape.n_segments  # each step then lies within one segment, where the loop is smooth
        check("steps", self.steps, (lambda v: v % n == 0, f"a multiple of the loop's segments, samples = {n}"))

    def with_steps(self, steps: int) -> "HolonomyLoop":
        return HolonomyLoop(self.shape, self.bloch, self.control, self.charge, steps, self.patch)

    def reversed(self) -> "HolonomyLoop":
        """Loop traversed backwards, with the control played back in reverse.

        For a pinned axis the control is the transverse one-form component
        per unit parameter, so reversal negates it along with the tangent;
        for analytic fields the axis-motion factor flips instead and the
        control value is kept.  Either way the reversed holonomy is the
        exact inverse of the forward one at any step count.  The shared zero
        control stays itself, so a reversed pinned loop keeps the closed form.
        """
        ctrl, sign = self.control, (-1.0 if self.bloch.is_pinned else 1.0)
        rev_psi = ctrl if ctrl is ControlField.zero() else ControlField._from_arrays(
            lambda s: sign * ctrl.at(2 * math.pi - s), check_periodic=False)
        return HolonomyLoop(self.shape.reversed(), self.bloch, rev_psi, self.charge, self.steps, self.patch)

    def sample(self) -> LoopSamples:
        """Transport data (A, psi, axis data) at ``midpoint_grid(steps)``, k = steps / n_segments on each segment."""
        k = self.steps // self.shape.n_segments
        (th, dth), (ph, dph) = (_segment_midpoints(x, k) for x in (self.shape.colatitudes, self.shape.azimuths))
        psi = self.control.at(midpoint_grid(self.steps)[0])
        return _samples_at(th, ph, dth, dph, self.bloch, psi, self.patch, "loop")


def _segment_midpoints(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-linear loop nodes ``x`` over [0, 2 pi] at k midpoints per segment, x_i + dx_i (m + 1/2) / k, and
    each segment's rate dx_i / ds repeated k times."""
    dx = np.diff(x)
    return (x[:-1, None] + dx[:, None] * ((np.arange(k) + 0.5) / k)).ravel(), np.repeat(dx / (2 * math.pi / dx.size), k)


def _step_pairs(vx, vy, vz, factor: float) -> tuple[np.ndarray, np.ndarray]:
    """First row (a, b) of exp(i (factor/2) v . sigma) for v with components (vx, vy, vz)."""
    norms = np.sqrt(vx * vx + vy * vy + vz * vz)  # the bits of np.linalg.norm on (..., 3) rows
    half = 0.5 * factor * norms
    scale = np.where(norms > 0.0, np.sin(half) / np.where(norms > 0.0, norms, 1.0), 0.5 * factor)
    # a = cos + 1j kz and b = 1j kx + ky, written part by part; the 0.0 terms
    # keep the signed zeros of that complex arithmetic (k = scale v may underflow).
    a, b = np.empty(norms.shape, dtype=complex), np.empty(norms.shape, dtype=complex)
    kx = scale * vx
    np.cos(half, out=a.real)
    np.add(scale * vz, 0.0, out=a.imag)
    np.multiply(0.0, kx, out=b.real)
    b.real += scale * vy
    np.add(kx, 0.0, out=b.imag)
    return a, b


def _pair_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row of the ordered product of the factors with first rows (a, b) on the last axis."""
    while a.shape[-1] > 1:
        n = a.shape[-1]
        even = n - n % 2
        a1, b1 = a[..., 0:even:2], b[..., 0:even:2]
        a2, b2 = a[..., 1:even:2], b[..., 1:even:2]
        paired_a = a2 * a1 - b2 * np.conj(b1)
        paired_b = a2 * b1 + b2 * np.conj(a1)
        if n % 2:
            paired_a = np.concatenate([paired_a, a[..., -1:]], axis=-1)
            paired_b = np.concatenate([paired_b, b[..., -1:]], axis=-1)
        a, b = paired_a, paired_b
    return a[..., 0], b[..., 0]


def _su2_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[[a, b], [-conj(b), conj(a)]] on two new last axes; 0.0 - conj(b) keeps zeros +0.0."""
    lower = np.stack([0.0 - np.conj(b), np.conj(a)], axis=-1)
    return np.stack([np.stack([a, b], axis=-1), lower], axis=-2)


def _transport(v, factor: float) -> np.ndarray:
    """Ordered product of the step exponentials of components ``v`` = (vx, vy, vz), each (..., N)."""
    return _su2_matrix(*_pair_product(*_step_pairs(*v, factor)))


def su2_exponentials(vectors: np.ndarray, factor: float) -> np.ndarray:
    """Closed-form stack of exp(i (factor/2) v . sigma) for rows v of ``vectors``."""
    return _su2_matrix(*_step_pairs(*np.moveaxis(np.atleast_2d(vectors), -1, 0), factor))


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product M_{N-1} ... M_1 M_0 of SU(2) factors, by pairwise tree reduction.

    ``mats`` has shape (..., N, 2, 2) with N >= 1; the product runs along
    axis -3 and any leading axes are a batch, so the result has shape
    (..., 2, 2).  Precondition: every factor has the SU(2) form
    [[a, b], [-conj(b), conj(a)]] to 1e-12, because only its first row
    (a, b) is read.  Adjacent pairs combine as

        a = a2 a1 - b2 conj(b1),    b = a2 b1 + b2 conj(a1),

    in a fixed order, so the evaluation is deterministic and a batch gives
    the same bits as separate calls.

    Raises:
        ValidationError: the stack is not (..., N, 2, 2) with N >= 1, or a
            factor departs from the SU(2) form by more than 1e-12 (NaN
            included).
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim < 3 or mats.shape[-2:] != (2, 2) or mats.shape[-3] == 0:
        raise ValidationError("ordered product needs a (..., N, 2, 2) stack with N >= 1")
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    for err in (np.abs(mats[..., 1, 1] - np.conj(a)), np.abs(mats[..., 1, 0] + np.conj(b))):
        check("product factor's departure from SU(2) form", np.max(err), at_most(1e-12))
    return _su2_matrix(*_pair_product(a, b))


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


def _wilson_line(v, charge: float, ds: float) -> WilsonLine:
    """Fused product of the step exponentials of components (vx, vy, vz) (NaN fails in WilsonLine)."""
    return WilsonLine(_transport(v, charge * ds))


def integrate_wilson(loop: HolonomyLoop) -> WilsonLine:
    """Holonomy of a closed loop as an ordered product of SU(2) step factors.

    A pinned loop is transported by ``wilson_from_samples`` on the loop's
    samples, in the frame ``PINNED_FRAME`` (n = +z).  With the zero control
    its steps commute, and each segment's midpoint values of A are summed in
    closed form into the one factor exp(i (eta/2) sigma_z).
    """
    ds = 2 * math.pi / loop.steps
    if loop.bloch.is_pinned and loop.control is ControlField.zero():
        shape = loop.shape
        total = np.sum(_monopole_segment_sums(shape.colatitudes, shape.azimuths, loop.steps // shape.n_segments,
                                              loop.patch), keepdims=True)
        return _wilson_line([total * n_k for n_k in PINNED_FRAME[2]], loop.charge, ds)
    samples = loop.sample()
    if loop.bloch.is_pinned:
        return wilson_from_samples(samples.a, samples.psi, loop.charge)
    return _wilson_line(connection_vectors(samples), loop.charge, ds)


def wilson_from_samples(abelian, control, charge: float) -> WilsonLine:
    """Transport a pinned-frame connection given as sampled rate data.

    ``abelian`` and ``control`` sample the diagonal coefficient A(s) and the
    complex transverse coefficient psi(s) at the midpoints of a uniform
    partition of [0, 2 pi] (see :func:`midpoint_grid`), transported at the
    positive finite coupling weight ``charge``.  With every psi exactly 0 the steps
    commute and reduce to the one factor exp(i (eta/2) sigma_z), eta = q ds sum A.
    """
    check("charge", charge, POSITIVE)
    a = np.asarray(abelian, dtype=float)
    psi = np.asarray(control, dtype=complex)
    if a.ndim != 1 or a.size == 0 or psi.shape != a.shape:
        raise ValidationError("rate samples must be non-empty 1-d arrays of equal length")
    ds = 2 * math.pi / a.size
    if not np.any(psi):
        total = np.sum(a, keepdims=True)
        return _wilson_line([total * n_k for n_k in PINNED_FRAME[2]], charge, ds)
    return _wilson_line((psi.real, -psi.imag, a), charge, ds)


def wilson_from_rates(abelian, control, charge: float, n_steps: int = 4096) -> WilsonLine:
    """Transport a pinned-frame connection given directly as rate data.

    ``abelian`` maps s to the diagonal coefficient A(s); ``control`` maps s
    to the complex transverse coefficient psi(s).  Both are scalar callables,
    evaluated once per midpoint sample.  This is the entry point for
    gauge-rotation experiments, where (A, psi) are manipulated as data
    rather than derived from loop geometry.  ``charge`` and ``n_steps`` are checked before either is called.
    """
    check("charge", charge, POSITIVE)
    check("n_steps", n_steps, STEPS)
    s_mid, _ = midpoint_grid(n_steps)
    a = np.vectorize(abelian, otypes=[float])(s_mid)
    psi = np.vectorize(control, otypes=[complex])(s_mid)
    return wilson_from_samples(a, psi, charge)


def holonomy_trace(loop: HolonomyLoop) -> float:
    """Real trace of the loop holonomy."""
    return integrate_wilson(loop).trace


@dataclass(frozen=True)
class TraceExpansion:
    """Trace of a loop holonomy split into abelian phase and transverse corrections (I2, or I2 and I4).

    ``trace_estimate`` composes them: 2 cos(abelian_angle) (1 - I2 + I4), with I4 = 0 at order 2.
    """

    abelian_angle: float
    corrections: tuple[float, ...]

    @property
    def trace_estimate(self) -> float:
        i2, i4 = (*self.corrections, 0.0)[:2]
        return 2.0 * math.cos(self.abelian_angle) * (1.0 - i2 + i4)


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
    check("expansion order", order, (lambda v: v in (2, 4), "2 or 4"))
    c = np.asarray(c, dtype=float)
    j = np.asarray(j, dtype=complex)
    ds = 2 * math.pi / c.size

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by name
        # Accumulated diagonal phase at midpoints (composite midpoint rule).
        eta_end, eta_mid = cumulative_midpoint(c, ds)
        eta_total = eta_end[-1]
        g = j * np.exp(-1j * eta_mid)

        inner_gbar = cumulative_midpoint(np.conj(g), ds)[1]
        c2_at = -0.25 * cumulative_midpoint(g * inner_gbar, ds)[1]
        c2 = -0.25 * ds * complex(np.sum(g * inner_gbar))
    guard("abelian angle eta over the loop", eta_total, FINITE)
    guard("I2 integral c2 over the loop", c2, FINITE)

    half_cos = math.cos(0.5 * eta_total)
    phase = complex(math.cos(0.5 * eta_total), math.sin(0.5 * eta_total))
    guard("abelian |cos(eta / 2)|", abs(half_cos), (lambda v: v >= 1e-12, "at least 1e-12, off a trace zero"))

    i2 = -float((phase * c2).real) / half_cos
    guard("transverse coupling |I2| of the trace expansion", abs(i2), at_most(0.5))
    corrections = [i2]
    if order == 4:
        inner_gbar_c2 = cumulative_midpoint(np.conj(g) * c2_at, ds)[1]
        c4 = -0.25 * ds * complex(np.sum(g * inner_gbar_c2))
        i4 = float((phase * c4).real) / half_cos
        corrections.append(i4)
    return TraceExpansion(0.5 * eta_total, tuple(corrections))


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
    c, j = eigenframe_rate_samples(loop.sample(), loop.charge)
    return trace_expansion_from_rates(c, j, order)


def _half_trace_angle(trace: float) -> float:
    """arccos(trace / 2) in [0, pi]; |trace / 2| must be <= 1 + 1e-10 (NaN fails)."""
    half_trace = trace / 2.0
    guard("|Tr W| / 2", abs(half_trace), at_most(1.0 + 1e-10))
    return math.acos(min(1.0, max(-1.0, half_trace)))


def rotation_angle(w: WilsonLine) -> float:
    """Qubit rotation angle Theta = 2 arccos(Tr W / 2), principal branch in [0, 2 pi]."""
    return 2.0 * _half_trace_angle(w.trace)
