"""Triangle configurations and their image on Kendall's shape sphere.

The chain of maps is

    TriangleConfig --to_jacobi--> JacobiPair --to_preshape--> PreshapePoint
                   --hopf_project--> ShapePoint,

plus ``ShapeLoop`` for closed control cycles and ``solid_angle`` for their
enclosed (signed) solid angle.  ``shape_angles`` is the same map over
arrays of planar body frames: the scalar chain and the array path share
one Jacobi map (``_jacobi``) and one set of Hopf angles (``_hopf_angles``).

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
``(theta, phi = phi2 - phi1)``.  Poles (theta in {0, pi}) have a degenerate
azimuth, which is set to 0 and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "TriangleConfig",
    "JacobiPair",
    "PreshapePoint",
    "ShapePoint",
    "ShapeLoop",
    "to_jacobi",
    "to_preshape",
    "hopf_project",
    "shape_point_of",
    "shape_angles",
    "solid_angle",
]

_POLE_TOL = 1e-9
_CLOSURE_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TriangleConfig:
    """Three mass-weighted vertices with the mass-weighted centroid at the origin.

    Attributes:
        vertices: (3, 3) array of positions (length units).
        masses: (3,) array of strictly positive masses.
    """

    vertices: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        verts = _readonly(self.vertices)
        masses = _readonly(self.masses)
        if verts.shape != (3, 3):
            raise ValidationError(f"vertices must have shape (3, 3), got {verts.shape}")
        if masses.shape != (3,):
            raise ValidationError(f"masses must have shape (3,), got {masses.shape}")
        if not np.all(np.isfinite(verts)) or not np.all(np.isfinite(masses)):
            raise ValidationError("non-finite vertices or masses")
        if np.any(masses <= 0):
            raise ValidationError("all masses must be strictly positive")
        scale = self._rms_size(verts, masses)
        centroid = masses @ verts / masses.sum()
        if scale > 0 and np.linalg.norm(centroid) > 1e-12 * max(scale, 1.0):
            raise ValidationError(
                "mass-weighted centroid must vanish "
                f"(|centroid| = {np.linalg.norm(centroid):.3e}, scale = {scale:.3e})"
            )
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "masses", masses)

    @staticmethod
    def _rms_size(verts: np.ndarray, masses: np.ndarray) -> float:
        return math.sqrt(float(masses @ np.sum(verts**2, axis=1) / masses.sum()))

    @classmethod
    def from_vertices(cls, vertices, masses) -> "TriangleConfig":
        """Build a configuration, shifting the mass-weighted centroid to the origin."""
        verts = np.asarray(vertices, dtype=float)
        m = np.asarray(masses, dtype=float)
        centroid = m @ verts / m.sum()
        return cls(verts - centroid, m)

    @property
    def weighted_size_sq(self) -> float:
        """sum_a m_a |r_a|^2 (mass-weighted squared size)."""
        return float(self.masses @ np.sum(self.vertices**2, axis=1))


@dataclass(frozen=True)
class JacobiPair:
    """The two planar Jacobi vectors packed as complex coordinates."""

    z1: complex
    z2: complex

    def __post_init__(self):
        if not (np.isfinite(self.z1.real) and np.isfinite(self.z1.imag)
                and np.isfinite(self.z2.real) and np.isfinite(self.z2.imag)):
            raise ValidationError("non-finite Jacobi coordinates")

    @property
    def size_sq(self) -> float:
        return abs(self.z1) ** 2 + abs(self.z2) ** 2


@dataclass(frozen=True)
class PreshapePoint:
    """Point on the preshape sphere in Hopf coordinates.

    ``size`` is the preshape radius, ``colatitude`` in [0, pi], and
    ``phase1``/``phase2`` the arguments of the two Jacobi coordinates in
    [0, 2 pi).
    """

    size: float
    colatitude: float
    phase1: float
    phase2: float

    def __post_init__(self):
        if self.size <= 0 or not np.isfinite(self.size):
            raise ValidationError("preshape size must be positive and finite")
        if not 0.0 <= self.colatitude <= math.pi:
            raise ValidationError("colatitude outside [0, pi]")

    def reconstruct(self) -> JacobiPair:
        """Invert the Hopf parametrisation back to Jacobi coordinates."""
        half = 0.5 * self.colatitude
        return JacobiPair(
            self.size * math.cos(half) * complex(math.cos(self.phase1), math.sin(self.phase1)),
            self.size * math.sin(half) * complex(math.cos(self.phase2), math.sin(self.phase2)),
        )


@dataclass(frozen=True)
class ShapePoint:
    """Point on Kendall's shape sphere: colatitude in [0, pi], azimuth in [0, 2 pi)."""

    colatitude: float
    azimuth: float
    azimuth_degenerate: bool = False

    def __post_init__(self):
        if not 0.0 <= self.colatitude <= math.pi:
            raise ValidationError("colatitude outside [0, pi]")
        if not 0.0 <= self.azimuth < 2 * math.pi:
            raise ValidationError("azimuth outside [0, 2 pi)")


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
    gap = np.max(np.abs(th[..., -1] - th[..., 0]))
    if gap > _CLOSURE_TOL:
        raise ValidationError(f"loop does not close in colatitude (gap {gap:.3e})")
    gap = (ph[..., -1] - ph[..., 0]) % (2 * math.pi)
    gap = np.max(np.minimum(gap, 2 * math.pi - gap))
    if gap > _CLOSURE_TOL:
        raise ValidationError(f"loop does not close in azimuth (gap {gap:.3e})")


@dataclass(frozen=True)
class ShapeLoop:
    """Closed parametrised loop on the shape sphere.

    Stored as N + 1 uniformly spaced samples of (colatitude, unwrapped
    azimuth) over s in [0, 2 pi], first and last shape points coinciding.
    The azimuth may close onto ``azimuth[0] + 2 pi k`` for loops that wind
    around the polar axis.  Interpolation is piecewise linear; traversal
    follows array order and ``orientation`` records the handedness relative
    to the original construction (flipped by :meth:`reversed`).
    """

    colatitudes: np.ndarray
    azimuths: np.ndarray  # unwrapped (continuous) azimuth samples
    orientation: int = 1

    def __post_init__(self):
        th = _readonly(self.colatitudes)
        ph = _readonly(self.azimuths)
        if th.ndim != 1 or th.shape != ph.shape:
            raise ValidationError("colatitude/azimuth sample arrays must be 1-d and equal length")
        _check_loop_samples(th, ph)
        if self.orientation not in (-1, 1):
            raise ValidationError("orientation must be +1 or -1")
        object.__setattr__(self, "colatitudes", th)
        object.__setattr__(self, "azimuths", ph)

    @classmethod
    def from_samples(cls, colatitudes, azimuths, orientation: int = 1) -> "ShapeLoop":
        """Build a loop from raw samples; the azimuth is unwrapped for continuity."""
        th = np.asarray(colatitudes, dtype=float)
        ph = np.unwrap(np.asarray(azimuths, dtype=float))
        return cls(th, ph, orientation)

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
        return ShapeLoop(self.colatitudes[::-1], self.azimuths[::-1], -self.orientation)


def _plane_basis(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic orthonormal in-plane basis (e1, e2) and normal for a triangle."""
    normal = np.cross(verts[1] - verts[0], verts[2] - verts[0])
    nn = np.linalg.norm(normal)
    if nn < 1e-14 * max(1.0, np.abs(verts).max()):
        # Collinear configuration: any plane containing the line works.
        line = verts[1] - verts[0]
        if np.linalg.norm(line) == 0:
            line = verts[2] - verts[0]
        if np.linalg.norm(line) == 0:
            raise ValidationError("degenerate configuration: all vertices coincide")
        trial = np.array([0.0, 0.0, 1.0])
        if abs(np.dot(trial, line)) > 0.9 * np.linalg.norm(line):
            trial = np.array([0.0, 1.0, 0.0])
        normal = np.cross(line, trial)
        nn = np.linalg.norm(normal)
    normal = normal / nn
    # Orient the normal deterministically: largest-magnitude component positive.
    k = int(np.argmax(np.abs(normal)))
    if normal[k] < 0:
        normal = -normal
    # e1: projection of the first lab axis sufficiently transverse to the normal.
    for trial in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        e1 = trial - np.dot(trial, normal) * normal
        if np.linalg.norm(e1) > 1e-6:
            break
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    return e1, e2, normal


def _jacobi(planar: np.ndarray, masses) -> tuple[np.ndarray, np.ndarray]:
    """Mass-weighted Jacobi coordinates (z1, z2) of planar vertices (..., 3, 2)."""
    m1, m2, m3 = (float(x) for x in np.asarray(masses, dtype=float))
    mu1 = m1 * m2 / (m1 + m2)
    mu2 = (m1 + m2) * m3 / (m1 + m2 + m3)
    p = np.asarray(planar, dtype=float)
    z1 = math.sqrt(mu1) * ((p[..., 1, 0] - p[..., 0, 0]) + 1j * (p[..., 1, 1] - p[..., 0, 1]))
    base = (m1 * p[..., 0, :] + m2 * p[..., 1, :]) / (m1 + m2)
    z2 = math.sqrt(mu2) * ((p[..., 2, 0] - base[..., 0]) + 1j * (p[..., 2, 1] - base[..., 1]))
    return z1, z2


def _hopf_angles(z1, z2):
    """Colatitude and the two phases in (-pi, pi] of Jacobi coordinates.

    ``angle(0) = 0`` pins the undefined phase of a vanishing component.
    """
    return 2.0 * np.arctan2(np.abs(z2), np.abs(z1)), np.angle(z1), np.angle(z2)


def shape_angles(planar: np.ndarray, masses) -> tuple[np.ndarray, np.ndarray]:
    """Shape-sphere coordinates (colatitude, unwrapped azimuth) of planar body frames.

    ``planar`` has shape (T, 3, 2); the azimuth is continuity-unwrapped along
    the trajectory.
    """
    theta, phase1, phase2 = _hopf_angles(*_jacobi(planar, masses))
    return theta, np.unwrap(phase2 - phase1)


def to_jacobi(config: TriangleConfig) -> JacobiPair:
    """Mass-weighted Jacobi coordinates of a (projected-planar) configuration.

    Out-of-plane components are removed by projecting onto the triangle
    plane; the in-plane components are packed as real/imaginary parts with a
    deterministic in-plane basis.

    Raises:
        ValidationError: if all three vertices coincide (zero preshape size).
    """
    verts = config.vertices
    e1, e2, _ = _plane_basis(verts)
    planar = np.stack([verts @ e1, verts @ e2], axis=1)  # (3, 2)
    pair = JacobiPair(*(complex(z) for z in _jacobi(planar, config.masses)))
    if pair.size_sq == 0.0:
        raise ValidationError("degenerate configuration: all vertices coincide")
    return pair


def _wrap(angle: float) -> float:
    """``angle`` reduced to [0, 2 pi); a remainder that rounds up to 2 pi becomes 0."""
    reduced = angle % (2 * math.pi)
    return 0.0 if reduced == 2 * math.pi else reduced


def to_preshape(j: JacobiPair) -> PreshapePoint:
    """Hopf coordinates (size, colatitude, two phases) of a Jacobi pair."""
    theta, phi1, phi2 = (float(x) for x in _hopf_angles(j.z1, j.z2))
    size = math.hypot(abs(j.z1), abs(j.z2))
    return PreshapePoint(size, theta, _wrap(phi1), _wrap(phi2))


def hopf_project(p: PreshapePoint) -> ShapePoint:
    """Project a preshape point along the Hopf fibre to the shape sphere."""
    theta = p.colatitude
    degenerate = theta < _POLE_TOL or theta > math.pi - _POLE_TOL
    phi = 0.0 if degenerate else _wrap(p.phase2 - p.phase1)
    return ShapePoint(theta, phi, degenerate)


def shape_point_of(config: TriangleConfig) -> ShapePoint:
    """Convenience composition to_jacobi -> to_preshape -> hopf_project."""
    return hopf_project(to_preshape(to_jacobi(config)))


def solid_angle(loop: ShapeLoop, south_patch: bool = False) -> float:
    """Signed solid angle enclosed by a loop, by the trapezoid rule.

    The north-patch evaluation integrates (1 - cos theta) d phi and requires
    the loop to stay away from the south pole; ``south_patch=True`` uses
    -(1 + cos theta) d phi with the north pole excluded instead.

    Raises:
        NumericalError: if the loop crosses the excluded pole.
    """
    th = loop.colatitudes
    ph = loop.azimuths
    if south_patch:
        if np.any(th < 1e-6):
            raise NumericalError("loop crosses the excluded north pole of the south patch")
        integrand = -(1.0 + np.cos(th))
    else:
        if np.any(th > math.pi - 1e-6):
            raise NumericalError("loop crosses the excluded south pole of the north patch")
        integrand = 1.0 - np.cos(th)
    avg = 0.5 * (integrand[1:] + integrand[:-1])
    return float(np.sum(avg * np.diff(ph)))
