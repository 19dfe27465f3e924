"""Gauss linking numbers of closed space curves and the topological gate phase.

``gauss_linking`` returns the Gauss linking number

    Lk = (1/4 pi) oint oint (dr1 x dr2) . (r1 - r2) / |r1 - r2|^3

of two closed polygons exactly: half their signed crossing count in a generic
projection, over the segment pairs a two-level sort-and-sweep finds (boxes of
runs of 32 segments first, then the segments of the runs that meet), in fixed
blocks.  Degenerate crossings and odd sums fail closed.  Each ``SpaceCurve``
is prepared once, so a pair does no per-curve work.  ``gauss_linking_integral``
keeps the double midpoint sum; its memory does not grow with curve length.
``cs_phase`` turns charges, linking and self-linking data, and a positive
integer level k into the state-dependent control phase

    phi = (4 pi / k) sum_{i<j} q_i q_j Lk_ij + (2 pi / k) sum_i q_i^2 SLk_i,

reduced mod 2 pi.  Self-linking requires a framing choice and is accepted
as declared input (default 0) rather than computed from geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FINITE, POSITIVE, NumericalError, ValidationError, check, count, frozen, guard

__all__ = ["SpaceCurve", "LinkData", "gauss_linking", "hopf_pair", "cs_phase"]

# Segment pairs per block of the Gauss double sum and of the crossing sweeps.
_BLOCK_PAIRS = 1 << 16
_CHUNK = 32  # boxes per run in the first level of ``_overlapping``
_VIEWS = ((0.3141, 0.5927, 0.7419), (-0.6691, 0.2236, 0.7071))  # generic, fixed
_ROUNDOFF = 1e-9  # of the larger diameter
_MAX_PHASE = 2.0**20  # rad; a few ulps of a larger cs_phase exceed 1e-9 rad
LEVEL = count(1, 2**63 - 1)  # cs_phase's k, an int64 as the CLI's ints are; the CLI's k reads it
SEGMENTS = count(16)  # segments of a SpaceCurve and hopf_pair; the CLI's hopf segments read it
LINKS = count(-2**63, 2**63 - 1)  # a linking or self-linking number, an int64


def _frame(view) -> np.ndarray:
    """Rows e1, e2, v of an orthonormal frame looking along ``view``."""
    v = np.asarray(view) / np.linalg.norm(view)
    e1 = np.cross(v, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    return np.stack([e1, np.cross(v, e1), v])


_FRAMES = tuple(_frame(view) for view in _VIEWS)


@dataclass(frozen=True)
class SpaceCurve:
    """Closed polygonal space curve.

    ``points`` holds a count of segments in ``SEGMENTS`` (17 samples at least) with the last sample
    closing onto the first to within 1e-10 of the curve diameter, and a
    finite centroid and segment midpoints.  Built once
    and read-only: ``rows`` and ``midrows``, the points and segment midpoints
    as (3, n) x, y, z rows; ``centroid``, the mean point; and ``diameter``,
    of the bounding box, in units of the power of two of the curve's extent.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValidationError("curve points must have shape (n, 3)")
        check("curve segments", pts.shape[0] - 1, SEGMENTS)
        rows = pts.T.copy()
        if not np.all(np.isfinite(rows)):
            raise ValidationError("non-finite curve points")
        if np.any(np.all(rows[:, 1:] == rows[:, :-1], axis=0)):  # exact: no squares to overflow
            raise ValidationError("consecutive duplicate points on curve")
        # One unit per curve, 2^e with e the exponent of its extent, for the closure gap and the
        # diameter: neither a tiny curve far from the origin underflows nor a norm overflows, and a
        # power of two keeps every bit where the squares are normal.  An extent that overflows is
        # first taken in units of the largest coordinate.
        lo, hi = rows.min(axis=1), rows.max(axis=1)
        with np.errstate(over="ignore"):  # an inf diameter fails in _scale, an inf centroid or midpoint below
            unit, ext = 1.0, hi - lo
            if not np.all(np.isfinite(ext)):
                unit = np.max(np.abs(rows))
                ext = hi / unit - lo / unit
            e = math.frexp(np.max(ext))[1]
            span = np.linalg.norm(np.ldexp(ext, -e))
            gap = np.linalg.norm(np.ldexp(rows[:, -1] / unit - rows[:, 0] / unit, -e))
            diameter = float(np.ldexp(span, e) * unit)
            check("curve closure gap", float(np.ldexp(gap, e) * unit),  # compared in the curve's unit 2^e
                  (lambda _: gap <= 1e-10 * span, f"at most 1e-10 of the curve diameter {diameter!r}"))
            centroid, midrows = pts.mean(axis=0), 0.5 * (rows[:, 1:] + rows[:, :-1])
        if not (np.all(np.isfinite(centroid)) and np.all(np.isfinite(midrows))):
            raise ValidationError("curve coordinates overflow its centroid or segment midpoints")
        frozen(self, points=rows.T, rows=rows, centroid=centroid, midrows=midrows, diameter=diameter)


@dataclass(frozen=True)
class LinkData:
    """Pairwise linking matrix and per-curve self-linking integers."""

    lk_matrix: np.ndarray
    slk: np.ndarray = None

    def __post_init__(self):
        # each entry before the cast, which truncates a float, wraps past int64 and reads a bool as 0 or 1
        for name, values in (("lk_matrix", self.lk_matrix), ("slk", [] if self.slk is None else self.slk)):
            for value in np.asarray(values, dtype=object).flat:
                check(name, value, LINKS)
        lk = np.array(self.lk_matrix, dtype=np.int64)
        if lk.ndim != 2 or lk.shape[0] != lk.shape[1]:
            raise ValidationError("linking matrix must be square")
        if not np.array_equal(lk, lk.T):
            raise ValidationError("linking matrix must be symmetric")
        np.fill_diagonal(lk, 0)  # diagonal unused
        slk = np.zeros(lk.shape[0], dtype=np.int64) if self.slk is None else np.array(self.slk, dtype=np.int64)
        if slk.shape != (lk.shape[0],):
            raise ValidationError("self-linking vector length must match the matrix")
        frozen(self, lk_matrix=lk, slk=slk)

    @classmethod
    def pair(cls, lk: int) -> "LinkData":
        """Two curves linked ``lk`` times, neither self-linked."""
        check("lk", lk, LINKS)
        return cls([[0, lk], [lk, 0]])


def gauss_linking_integral(c1: SpaceCurve, c2: SpaceCurve) -> float:
    """The raw (pre-rounding) Gauss double integral over segment midpoints.

    The double sum runs over blocks of whole rows of about ``_BLOCK_PAIRS``
    segment pairs, so memory is independent of curve length and the
    summation order is fixed.  The triple product is split as
    (d1 x d2).(m1 - m2) = (m1 x d1).d2 + d1.(m2 x d2), one matrix product
    per block, with midpoints centred on a common origin to keep that
    split exact far from the origin.  The close approach is refused and
    the larger diameter's overflow fails as in ``gauss_linking``.
    """
    scale = _scale(c1, c2)
    origin = 0.5 * (c1.centroid + c2.centroid)[:, None]
    (x1, d1), (x2, d2) = ((c.midrows - origin, np.diff(c.rows, axis=1)) for c in (c1, c2))
    left = np.vstack([np.cross(x1, d1, axis=0), d1]).T  # (n1, 6)
    right = np.vstack([d2, np.cross(x2, d2, axis=0)])  # (6, n2)
    per_block = max(1, _BLOCK_PAIRS // x2.shape[1])
    total = 0.0
    for start in range(0, x1.shape[1], per_block):
        block = slice(start, start + per_block)
        r2 = np.subtract.outer(x1[0, block], x2[0])
        r2 *= r2
        for k in (1, 2):
            dk = np.subtract.outer(x1[k, block], x2[k])
            dk *= dk
            r2 += dk
        integrand = left[block] @ right
        r2 *= np.sqrt(r2)
        integrand /= r2
        total += float(integrand.sum())
    return total / (4 * math.pi)


def _sweep(lo1, hi1, lo2, hi2):
    """Overlapping pairs (i, j) of boxes [lo, hi] (dims, n), swept on row 0, ``_BLOCK_PAIRS`` at a time."""
    order = np.argsort(lo2[0], kind="stable")
    # Partners of box i have lower ends in [lo1_i - (widest box 2), hi1_i] on row 0.
    start = np.searchsorted(lo2[0, order], lo1[0] - (hi2[0] - lo2[0]).max())
    count = np.searchsorted(lo2[0, order], hi1[0], side="right") - start
    ends = np.cumsum(count)
    for k0 in range(0, ends[-1], _BLOCK_PAIRS):
        k = np.arange(k0, min(k0 + _BLOCK_PAIRS, ends[-1]))
        i = np.searchsorted(ends, k, side="right")
        j = order[start[i] + k - ends[i] + count[i]]
        keep = (lo1.take(i, axis=1) <= hi2.take(j, axis=1)) & (lo2.take(j, axis=1) <= hi1.take(i, axis=1))
        keep = keep.all(axis=0)
        yield i[keep], j[keep]


def _overlapping(lo1, hi1, lo2, hi2):
    """Overlapping pairs (i, j) of boxes [lo, hi] (dims, n), in blocks of at most ``_BLOCK_PAIRS``.

    Two boxes overlap only where the boxes of their runs of ``_CHUNK`` do, so ``_sweep`` pairs the
    run boxes first and then only the boxes of runs that meet one on the other side.
    """
    runs = []
    for lo, hi in ((lo1, hi1), (lo2, hi2)):
        starts = np.arange(0, lo.shape[1], _CHUNK)  # the last run may be short
        runs.append((np.minimum.reduceat(lo, starts, axis=1), np.maximum.reduceat(hi, starts, axis=1)))
    hit1, hit2 = (np.zeros(lo.shape[1], dtype=bool) for lo, _ in runs)
    for i, j in _sweep(*runs[0], *runs[1]):
        hit1[i], hit2[j] = True, True
    if not hit1.any():
        return  # no pair, and _sweep needs a box on each side
    idx1 = np.flatnonzero(np.repeat(hit1, _CHUNK)[: lo1.shape[1]])
    idx2 = np.flatnonzero(np.repeat(hit2, _CHUNK)[: lo2.shape[1]])
    for i, j in _sweep(lo1[:, idx1], hi1[:, idx1], lo2[:, idx2], hi2[:, idx2]):
        yield idx1[i], idx2[j]


def _crossings(p1: np.ndarray, p2: np.ndarray, frame: np.ndarray) -> tuple[int, bool]:
    """Signed crossing sum of two unit-diameter (3, n) polygons in ``frame``, and if one is degenerate.

    sign(d1 x d2 . v) sign(h1 - h2), heights h along v, is the sign of (d1 x d2) . (a - b).  A crossing
    is degenerate (or NaN) when a projected segment end lies within ``_ROUNDOFF`` of the other's line
    (t or u at an end, as at every near-parallel crossing) or the heights do.
    """
    q1, q2 = frame @ p1, frame @ p2  # rows: x, y, height
    total, degenerate = 0, False
    for i, j in _overlapping(*(f(q[:2, :-1], q[:2, 1:]) for q in (q1, q2) for f in (np.minimum, np.maximum))):
        a, b = q1.take(i + 1, axis=1) - q1.take(i, axis=1), q2.take(j + 1, axis=1) - q2.take(j, axis=1)
        r = q2.take(j, axis=1) - q1.take(i, axis=1)
        den, num_t, num_u = (x[0] * y[1] - x[1] * y[0] for x, y in ((a, b), (r, b), (r, a)))
        # The side of b's line each end of a lies on, and of a's line each end of b: signed distances
        # times the line's length, 0 within round-off (always 0 for a zero-length segment: no 0/0).
        side = np.stack([num_t, num_u, num_t - den, num_u - den])
        tol = _ROUNDOFF * np.stack([np.hypot(b[0], b[1]), np.hypot(a[0], a[1])] * 2)
        ends = (np.sign(side) * (np.abs(side) > tol)).reshape(2, 2, -1).prod(axis=0)
        triple = (b[1] * a[2] - b[2] * a[1]) * r[0] + (b[2] * a[0] - b[0] * a[2]) * r[1]  # (b x a) . r
        triple += (b[0] * a[1] - b[1] * a[0]) * r[2]
        proper = (ends < 0).all(axis=0) & (np.abs(triple) > _ROUNDOFF * np.abs(den))
        degenerate |= bool(np.any(~(ends > 0).any(axis=0) & ~proper))
        total += int(np.sign(triple[proper]).sum())
    return total, degenerate


def _scale(c1: SpaceCurve, c2: SpaceCurve) -> float:
    """The larger diameter of the two curves: NumericalError where it overflows, as no Gauss sum is defined, and
    ValidationError where segment midpoints come within 1e-3 of it, swept (``_overlapping``) in units of its
    power of two."""
    scale = guard("larger curve diameter of the Gauss integral", max(c1.diameter, c2.diameter), FINITE)
    m1, m2, w, e, min_sep = c1.midrows, c2.midrows, 1e-3 * scale, math.frexp(scale)[1], math.inf
    for i, j in _overlapping(m1, m1, m2 - w, m2 + w):
        r2 = (np.ldexp(m1.take(i, axis=1) - m2.take(j, axis=1), -e) ** 2).sum(axis=0)
        min_sep = min(min_sep, math.ldexp(math.sqrt(r2.min(initial=math.inf)), e))
    check("closest approach of the curves' segment midpoints", min_sep,
          (lambda v: v >= w, f"at least 1e-3 of the larger diameter, {w!r}, for a reliable linking integral"))
    return scale


def gauss_linking(c1: SpaceCurve, c2: SpaceCurve) -> int:
    """Gauss linking number of two disjoint closed polygons, exactly.

    Half the signed crossing count in the first of ``_FRAMES``, or the second if a crossing is
    degenerate in the first (Banchoff 1976).  The close-approach refusal sweeps the midpoints too.

    Raises:
        ValidationError: segment midpoints approach closer than 1e-3 of the larger diameter.
        NumericalError: the diameter overflows, the points overflow in units of it, a crossing is
            degenerate in both views (see ``_crossings``), or the signed crossing sum is odd.
    """
    scale = _scale(c1, c2)
    origin = 0.5 * (c1.centroid + c2.centroid)[:, None]
    with np.errstate(over="ignore"):
        p1, p2 = (c1.rows - origin) / scale, (c2.rows - origin) / scale
    guard(f"largest point coordinate in units of the curve diameter {scale!r}", max(abs(p1).max(), abs(p2).max()),
          FINITE)
    for frame in _FRAMES:
        total, degenerate = _crossings(p1, p2, frame)
        if not degenerate:
            break
    else:
        raise NumericalError("a crossing is degenerate in both fixed views; perturb the curves")
    if total % 2:
        raise NumericalError(f"signed crossing sum {total} is odd")
    return total // 2


def hopf_pair(radius1: float = 1.0, radius2: float = 1.0, n_segments: int = 512):
    """The standard Hopf-linked circle pair, oriented so gauss_linking = +1.

    Circle 1 lies in the xy-plane centred at the origin; circle 2 lies in
    the xz-plane centred at (radius1, 0, 0) and threads through circle 1 if radius2 < 2 radius1.
    Each radius and their sum, the pair's extent, must be positive and finite, checked before numpy sees them.
    """
    check("radius1", radius1, POSITIVE)
    check("radius2", radius2, POSITIVE)
    check("hopf extent radius1 + radius2", radius1 + radius2, FINITE)
    check("hopf radius2", radius2, (lambda v: v < 2 * radius1, "below 2 * radius1 for the circles to link"))
    check("n_segments", n_segments, SEGMENTS)
    t = np.linspace(0.0, 2 * math.pi, n_segments + 1)
    cos, sin, zero = np.cos(t), np.sin(t), np.zeros_like(t)
    pts1 = np.stack([radius1 * cos, radius1 * sin, zero], axis=1)
    pts2 = np.stack([radius1 + radius2 * cos, zero, -radius2 * sin], axis=1)
    pts1[-1], pts2[-1] = pts1[0], pts2[0]
    return SpaceCurve(pts1), SpaceCurve(pts2)


def cs_phase(charges, link: LinkData, k: int) -> float:
    """State-dependent topological phase of linked control cycles, mod 2 pi.

    Each unordered curve pair contributes (4 pi / k) q_i q_j Lk_ij and each
    curve (2 pi / k) q_i^2 SLk_i.  NumericalError if the charge products overflow,
    or if the sum exceeds ``_MAX_PHASE`` before its reduction.
    """
    check("level k", k, LEVEL)
    n = link.lk_matrix.shape[0]
    q = np.asarray(check("charges", charges, (lambda v: np.shape(v) == (n,) and all(map(math.isfinite, v)),
                                              f"{n} finite values, one per curve")), dtype=float)
    pair_term = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by name
        for i in range(n):
            for j in range(i + 1, n):
                pair_term += q[i] * q[j] * link.lk_matrix[i, j]
        self_term = float(np.sum(q**2 * link.slk))
        phase = float((4 * math.pi / k) * pair_term + (2 * math.pi / k) * self_term)
    guard("|cs_phase| before its reduction mod 2 pi", abs(phase),
          (lambda v: v <= _MAX_PHASE, "at most 2^20 rad, past which rounding exceeds 1e-9 rad"))
    return phase % (2 * math.pi)
