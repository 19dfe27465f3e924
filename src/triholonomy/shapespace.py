"""Kendall's shape sphere: the shape map, shape points and closed shape loops.

``shape_angles`` maps planar body frames, given as (3, T) vertex rows, to
shape-sphere coordinates in one array pass: ``_jacobi`` forms the
mass-weighted Jacobi pair and ``_hopf_angles`` its Hopf coordinates.
``ShapePoint`` is one point of the sphere, ``ShapeLoop`` a closed control
cycle and ``solid_angle`` its enclosed (signed) solid angle.

Conventions
-----------
Jacobi vectors use the mass weights that make the free kinetic energy
Euclidean: with masses ``m1, m2, m3``,

    z1 = sqrt(mu1) * (r2 - r1),          mu1 = m1 m2 / (m1 + m2)
    z2 = sqrt(mu2) * (r3 - R12),         mu2 = (m1 + m2) m3 / (m1 + m2 + m3)

where ``R12`` is the centre of mass of vertices 1 and 2.  With the
mass-weighted centroid at the origin this normalisation satisfies
``|z1|^2 + |z2|^2 = sum_a m_a |r_a|^2`` (the kinetic-metric isometry).

The preshape sphere is parametrised as

    Z = rho * (cos(theta/2) e^{i phi1}, sin(theta/2) e^{i phi2}),

and the Hopf projection sends this to the shape-sphere point
``(theta, phi = phi2 - phi1)``.  At a pole (theta in {0, pi}) one Jacobi
coordinate vanishes and its undefined phase is pinned to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, at_most, bounded, check, check_fields, frozen

__all__ = ["ShapePoint", "ShapeLoop", "shape_angles", "solid_angle"]

_CLOSURE = at_most(1e-10)  # a loop's closure gap in each coordinate


@dataclass(frozen=True)
class ShapePoint:
    """Point on Kendall's shape sphere: colatitude in [0, pi], azimuth in [0, 2 pi)."""

    colatitude: float = bounded((lambda v: 0.0 <= v <= math.pi, "in [0, pi]"))
    azimuth: float = bounded((lambda v: 0.0 <= v < 2 * math.pi, "in [0, 2 pi)"))

    def __post_init__(self):
        check_fields(self)


def _check_loop_samples(th: np.ndarray, ph: np.ndarray) -> None:
    """Closed-loop invariants of (colatitude, unwrapped azimuth) samples.

    The last axis runs along a loop; leading axes stack several loops of
    equal length, each held to the same bounds.
    """
    if th.shape[-1] < 9:
        raise ValidationError("a loop needs at least 8 segments (9 samples)")
    if not (np.all(np.isfinite(th)) and np.all(np.isfinite(ph))):
        raise ValidationError("non-finite loop samples")
    if np.any(th < -1e-12) or np.any(th > math.pi + 1e-12):
        raise ValidationError("colatitude samples outside [0, pi]")
    check("loop's closure gap in colatitude", np.max(np.abs(th[..., -1] - th[..., 0])), _CLOSURE)
    gap = (ph[..., -1] - ph[..., 0]) % (2 * math.pi)
    check("loop's closure gap in azimuth", np.max(np.minimum(gap, 2 * math.pi - gap)), _CLOSURE)


@dataclass(frozen=True)
class ShapeLoop:
    """Closed parametrised loop on the shape sphere.

    Stored as N + 1 uniformly spaced samples of (colatitude, unwrapped
    azimuth) over s in [0, 2 pi], first and last shape points coinciding.
    The azimuth may close onto ``azimuth[0] + 2 pi k`` for loops that wind
    around the polar axis.  Interpolation is piecewise linear, and traversal
    follows array order.
    """

    colatitudes: np.ndarray
    azimuths: np.ndarray  # unwrapped (continuous) azimuth samples

    def __post_init__(self):
        th, ph = np.array(self.colatitudes, dtype=float), np.array(self.azimuths, dtype=float)
        if th.ndim != 1 or th.shape != ph.shape:
            raise ValidationError("colatitude/azimuth sample arrays must be 1-d and equal length")
        _check_loop_samples(th, ph)
        frozen(self, colatitudes=th, azimuths=ph)

    @classmethod
    def from_samples(cls, colatitudes, azimuths) -> "ShapeLoop":
        """Build a loop from raw samples; the azimuth is unwrapped for continuity."""
        th = np.asarray(colatitudes, dtype=float)
        ph = np.unwrap(np.asarray(azimuths, dtype=float))
        return cls(th, ph)

    @property
    def n_segments(self) -> int:
        return self.colatitudes.size - 1

    @property
    def params(self) -> np.ndarray:
        return np.linspace(0.0, 2 * math.pi, self.colatitudes.size)

    def at(self, s):
        """Piecewise-linear (colatitude, unwrapped azimuth) at parameter(s) s."""
        s = np.asarray(s, dtype=float)
        grid = self.params
        return (
            np.interp(s, grid, self.colatitudes),
            np.interp(s, grid, self.azimuths),
        )

    def tangent(self, s):
        """Segment-wise (d colatitude/ds, d azimuth/ds) at parameter(s) s."""
        s = np.asarray(s, dtype=float)
        n = self.n_segments
        ds = 2 * math.pi / n
        idx = np.clip((s / ds).astype(int), 0, n - 1)
        return np.diff(self.colatitudes)[idx] / ds, np.diff(self.azimuths)[idx] / ds

    def reversed(self) -> "ShapeLoop":
        """The same geometric loop traversed backwards."""
        return ShapeLoop(self.colatitudes[::-1], self.azimuths[::-1])


def _jacobi(x, y, masses) -> tuple[np.ndarray, np.ndarray]:
    """Mass-weighted Jacobi coordinates (z1, z2) of planar vertex rows x, y (3, ...)."""
    m1, m2, m3 = (float(v) for v in np.asarray(masses, dtype=float))
    mu1 = m1 * m2 / (m1 + m2)
    mu2 = (m1 + m2) * m3 / (m1 + m2 + m3)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    z1 = math.sqrt(mu1) * ((x[1] - x[0]) + 1j * (y[1] - y[0]))
    base_x, base_y = ((m1 * r[0] + m2 * r[1]) / (m1 + m2) for r in (x, y))
    z2 = math.sqrt(mu2) * ((x[2] - base_x) + 1j * (y[2] - base_y))
    return z1, z2


def _hopf_angles(z1, z2):
    """Colatitude and the two phases in (-pi, pi] of Jacobi coordinates.

    ``angle(0) = 0`` pins the undefined phase of a vanishing component.
    """
    return 2.0 * np.arctan2(np.abs(z2), np.abs(z1)), np.angle(z1), np.angle(z2)


def shape_angles(x, y, masses) -> tuple[np.ndarray, np.ndarray]:
    """Shape-sphere coordinates (colatitude, unwrapped azimuth) of planar body frames.

    ``x`` and ``y`` are (3, T) vertex rows; the azimuth is continuity-unwrapped
    along the trajectory.
    """
    theta, phase1, phase2 = _hopf_angles(*_jacobi(x, y, masses))
    return theta, np.unwrap(phase2 - phase1)


def solid_angle(loop: ShapeLoop) -> float:
    """Signed solid angle enclosed by a loop: the trapezoid rule on the north patch's (1 - cos theta) d phi.

    The terms are summed exactly rounded (``math.fsum``), so the reversed loop's angle is exactly the negative.

    Raises:
        NumericalError: if the loop crosses the patch's excluded south pole.
    """
    th = loop.colatitudes
    if np.any(th > math.pi - 1e-6):
        raise NumericalError("loop crosses the excluded south pole of the north patch")
    integrand = 1.0 - np.cos(th)
    avg = 0.5 * (integrand[1:] + integrand[:-1])
    return math.fsum((avg * np.diff(loop.azimuths)).tolist())
