"""Gauge data over the shape sphere: U(1) and SU(2) connection evaluation.

The abelian (Guichardet) part is the potential of a unit monopole on the
shape sphere, written in one of the two standard patches:

    north:  A = (1/2) (1 - cos theta) d phi      (string at the south pole)
    south:  A = -(1/2) (1 + cos theta) d phi     (string at the north pole)

The full SU(2) connection couples a Bloch-axis field ``n`` and a complex
control ``psi``.  For a moving (analytic) axis the lab-frame one-form is

    A_full = [A n + dn x n + Re(psi) dn + Im(psi) dn x n] . sigma / 2i,

while for a *pinned* axis (constant ``n``, the regime of the explicit gate
constructions) the control couples directly through a fixed right-handed
transverse frame (e1, e2, n):

    A_full = [A n + Re(psi) e1 - Im(psi) e2] . sigma / 2i,

which in the frame basis is the matrix (1/2i) [[A, psi], [conj(psi), -A]].
This is the standard rescaled-control convention in which ``psi`` is the
transverse connection component per unit loop parameter; it makes (A, psi)
an abelian-Higgs pair under frame rotations about n,

    A -> A + d alpha,   psi -> e^{i q alpha} psi,

exactly (the stated unit-charge law at transport weight q = 1).

A ``ConnectionSample`` additionally reports the abelian coefficient
``C = A + omega`` and the transverse coefficient ``J`` (``psi`` itself for
pinned fields, ``psi (d mu - i sin mu d lambda)`` for analytic ones), with
``omega`` the unit-monopole potential on the Bloch sphere pulled back
through the axis field.

Every quantity is evaluated on arrays of samples (``monopole_potential``,
``connection_vectors``, ``eigenframe_rate_samples``); the pointwise
functions are one-sample calls into these kernels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .shapespace import ShapePoint

__all__ = [
    "GaugePatch",
    "BlochField",
    "ControlField",
    "ConnectionSample",
    "LoopSamples",
    "monopole_potential",
    "connection_vectors",
    "eigenframe_rate_samples",
    "guichardet_connection",
    "bloch_axis",
    "bloch_area_potential",
    "wilczek_zee_sample",
    "curvature_sample",
    "curvature_vector",
]

_FD_STEP = 1e-6  # central-difference step for angle partials
_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


class GaugePatch(enum.Enum):
    """Monopole gauge patch: which pole carries the Dirac string."""

    NORTH = "north"  # regular at theta = 0, excluded pole at theta = pi
    SOUTH = "south"  # regular at theta = pi, excluded pole at theta = 0


def vector_to_su2(v) -> np.ndarray:
    """Embed a real 3-vector as v . sigma / 2i (anti-Hermitian traceless)."""
    vx, vy, vz = v
    return (vx * _PAULI[0] + vy * _PAULI[1] + vz * _PAULI[2]) / 2j


class BlochField:
    """Quantisation-axis field over the shape sphere.

    Either *pinned* (a constant unit vector, default +z) or *analytic*,
    given by Bloch-sphere angle callables ``mu(theta, phi)`` (polar) and
    ``lam(theta, phi)`` (azimuthal), so that

        n = (cos lam sin mu, sin lam sin mu, cos mu).

    The callables are scalar and are evaluated once per sample point.
    Angle partial derivatives default to central differences; analytic
    partials can be supplied for exactness.
    """

    def __init__(
        self,
        mu: Callable[[float, float], float] | None = None,
        lam: Callable[[float, float], float] | None = None,
        axis=None,
        mu_partials: Callable[[float, float], tuple[float, float]] | None = None,
        lam_partials: Callable[[float, float], tuple[float, float]] | None = None,
    ):
        if (mu is None) != (lam is None):
            raise ValidationError("analytic fields need both mu and lam callables")
        self._mu = None if mu is None else np.vectorize(mu, otypes=[float])
        self._lam = None if lam is None else np.vectorize(lam, otypes=[float])
        self._partials = tuple(
            None if fn is None else np.vectorize(fn, otypes=[float, float])
            for fn in (mu_partials, lam_partials)
        )
        if mu is None:
            n = np.array([0.0, 0.0, 1.0]) if axis is None else np.asarray(axis, dtype=float)
            norm = np.linalg.norm(n)
            if not np.isfinite(norm) or abs(norm - 1.0) > 1e-12:
                raise ValidationError("pinned axis must be a unit vector to 1e-12")
            self._axis = n
            self._frame = self._transverse_frame(n)
        else:
            if axis is not None:
                raise ValidationError("give either a pinned axis or angle callables, not both")
            self._axis = None
            self._frame = None

    @staticmethod
    def _transverse_frame(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic right-handed completion (e1, e2) of a unit vector."""
        trial = np.array([0.0, 0.0, 1.0])
        if abs(np.dot(trial, n)) > 0.9:
            trial = np.array([1.0, 0.0, 0.0])
        e1 = np.cross(trial, n)
        e1 /= np.linalg.norm(e1)
        # For the default +z axis this yields e1 = x, e2 = y.
        if n[2] > 0.9:
            e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.cross(n, e1)
        return e1, e2

    @classmethod
    def pinned(cls, axis=None) -> "BlochField":
        return cls(axis=axis)

    @classmethod
    def from_angles(cls, mu, lam, mu_partials=None, lam_partials=None) -> "BlochField":
        return cls(mu=mu, lam=lam, mu_partials=mu_partials, lam_partials=lam_partials)

    @classmethod
    def radial(cls) -> "BlochField":
        """The identity field: the axis follows the shape-sphere radial direction."""
        return cls.from_angles(
            mu=lambda th, ph: th,
            lam=lambda th, ph: ph,
            mu_partials=lambda th, ph: (1.0, 0.0),
            lam_partials=lambda th, ph: (0.0, 1.0),
        )

    @property
    def is_pinned(self) -> bool:
        return self._mu is None

    @property
    def pinned_axis(self) -> np.ndarray:
        if not self.is_pinned:
            raise ValidationError("not a pinned field")
        return self._axis

    @property
    def transverse_frame(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.is_pinned:
            raise ValidationError("not a pinned field")
        return self._frame

    def angle_samples(self, th, ph, dth, dph) -> tuple[np.ndarray, ...]:
        """Bloch angles and their rates (mu, lam, dmu/ds, dlam/ds) at sampled points.

        ``th``, ``ph`` are shape-sphere coordinates and ``dth``, ``dph`` the
        tangent (dtheta/ds, dphi/ds) there; all four are arrays of one shape.
        """
        mu, lam = self._angles(th, ph)
        if self.is_pinned:
            return mu, lam, np.zeros_like(mu), np.zeros_like(mu)
        rates = []
        for fn, partials in zip((self._mu, self._lam), self._partials):
            if partials is not None:
                d_th, d_ph = partials(th, ph)
            else:
                h = _FD_STEP
                d_th = (fn(th + h, ph) - fn(th - h, ph)) / (2 * h)
                d_ph = (fn(th, ph + h) - fn(th, ph - h)) / (2 * h)
            rates.append(d_th * dth + d_ph * dph)
        if not all(np.all(np.isfinite(x)) for x in (mu, lam, *rates)):
            raise ValidationError("Bloch field angles and their rates must be finite")
        return mu, lam, rates[0], rates[1]

    def _angles(self, th, ph) -> tuple[np.ndarray, np.ndarray]:
        if self.is_pinned:
            n = self._axis
            mu = math.acos(np.clip(n[2], -1.0, 1.0))
            return np.full(np.shape(th), mu), np.full(np.shape(th), math.atan2(n[1], n[0]))
        return self._mu(th, ph), self._lam(th, ph)

    def angles(self, point: ShapePoint) -> tuple[float, float]:
        """Bloch angles (mu, lam) at a shape point."""
        mu, lam = self._angles(point.colatitude, point.azimuth)
        return float(mu), float(lam)

    def angle_rates(self, point: ShapePoint, tangent) -> tuple[float, float]:
        """(d mu/ds, d lam/ds) along a shape-space tangent (dtheta/ds, dphi/ds)."""
        _, _, dmu, dlam = self.angle_samples(point.colatitude, point.azimuth, *tangent)
        return float(dmu), float(dlam)

    def axis(self, point: ShapePoint) -> np.ndarray:
        """The unit axis n at a shape point."""
        if self.is_pinned:
            return self._axis
        return _axis_and_rate(*self.angles(point), 0.0, 0.0)[0]


def _axis_and_rate(mu, lam, dmu, dlam) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes n(mu, lam) and their rates dn/ds, stacked along a last axis of length 3."""
    cm, sm, cl, sl = np.cos(mu), np.sin(mu), np.cos(lam), np.sin(lam)
    n = np.stack([cl * sm, sl * sm, cm], axis=-1)
    if not np.all(np.abs(np.linalg.norm(n, axis=-1) - 1.0) <= 1e-12):
        raise NumericalError("Bloch field produced a non-unit axis")
    dn_dmu = np.stack([cl * cm, sl * cm, -sm], axis=-1)
    dn_dlam = np.stack([-sl * sm, cl * sm, np.zeros_like(sm)], axis=-1)
    return n, np.asarray(dmu)[..., None] * dn_dmu + np.asarray(dlam)[..., None] * dn_dlam


def bloch_axis(field: BlochField, point: ShapePoint, tangent) -> tuple[np.ndarray, np.ndarray]:
    """Axis n and its parameter derivative dn/ds along a tangent.

    The derivative is assembled from the exact angle gradients of the unit
    sphere, so it is orthogonal to n at machine precision even when the
    angle rates come from finite differences.
    """
    if field.is_pinned:
        return field.pinned_axis, np.zeros(3)
    return _axis_and_rate(*field.angle_samples(point.colatitude, point.azimuth, *tangent))


class ControlField:
    """Complex control psi as a function of the loop parameter s in [0, 2 pi].

    ``fn`` is a scalar callable, evaluated once per sampled parameter value.
    Values must be finite wherever the field is sampled; periodic continuity
    |psi(0) - psi(2 pi)| < 1e-10 is enforced unless the field is constructed
    with ``check_periodic=False`` (needed for phase-steered controls whose
    argument tracks an accumulated frame angle and therefore winds).
    """

    def __init__(self, fn: Callable[[float], complex], check_periodic: bool = True):
        self._bind(np.vectorize(fn, otypes=[complex]), check_periodic)

    @classmethod
    def _from_arrays(cls, values, check_periodic: bool = True) -> "ControlField":
        """Field whose ``values`` maps an array of s to the array of psi (library-built controls)."""
        field = cls.__new__(cls)
        field._bind(values, check_periodic)
        return field

    def _bind(self, values, check_periodic: bool) -> None:
        self._values = values
        v0, v1 = self.at(np.array([0.0, 2 * math.pi]))
        self.periodic = bool(abs(v0 - v1) <= 1e-10)
        if check_periodic and not self.periodic:
            raise ValidationError(f"control field is not 2 pi-periodic (gap {abs(v0 - v1):.3e})")

    @classmethod
    def constant(cls, value: complex) -> "ControlField":
        value = complex(value)
        return cls._from_arrays(lambda s: np.full(np.shape(s), value, dtype=complex))

    @classmethod
    def zero(cls) -> "ControlField":
        return cls.constant(0.0)

    @classmethod
    def from_samples(cls, values, check_periodic: bool = True) -> "ControlField":
        """Piecewise-linear interpolation of uniform samples over [0, 2 pi]."""
        vals = np.asarray(values, dtype=complex)
        grid = np.linspace(0.0, 2 * math.pi, vals.size)
        return cls._from_arrays(
            lambda s: np.interp(s, grid, vals.real) + 1j * np.interp(s, grid, vals.imag),
            check_periodic,
        )

    def at(self, s) -> complex | np.ndarray:
        """psi at a parameter value or an array of them.

        Raises:
            ValidationError: if any sampled value is not finite.
        """
        values = np.asarray(self._values(np.asarray(s, dtype=float)), dtype=complex)
        if not np.all(np.isfinite(values)):
            raise ValidationError("control field value is not finite")
        return complex(values) if values.ndim == 0 else values


@dataclass(frozen=True)
class ConnectionSample:
    """SU(2) connection contracted with a loop tangent, plus its decomposition.

    Attributes:
        full: 2x2 anti-Hermitian traceless matrix (connection per unit s).
        abelian: the diagonal coefficient C = A + omega on the tangent.
        transverse: the off-diagonal coefficient J on the tangent.
    """

    full: np.ndarray
    abelian: float
    transverse: complex

    def __post_init__(self):
        m = np.asarray(self.full, dtype=complex)
        if m.shape != (2, 2):
            raise ValidationError("connection sample must be 2x2")
        if not (abs(np.trace(m)) <= 1e-12 and np.max(np.abs(m + m.conj().T)) <= 1e-12):
            raise ValidationError("connection sample must be traceless and anti-Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "full", m)


class LoopSamples(NamedTuple):
    """Transport data sampled along a loop.

    ``a`` is the monopole potential A on the tangent, ``psi`` the control,
    and ``axis`` the analytic axis data (mu, lam, dmu/ds, dlam/ds), or None
    for a pinned axis.
    """

    a: np.ndarray
    psi: np.ndarray
    axis: tuple[np.ndarray, ...] | None


def monopole_potential(colat, dazimuth, patch: GaugePatch = GaugePatch.NORTH, where: str = "loop"):
    """Unit-monopole potential contracted with tangents, at arrays of samples.

    North patch (1/2)(1 - cos colat) dazimuth, south -(1/2)(1 + cos colat)
    dazimuth; the same form serves the shape sphere and, pulled back through
    the axis field, the Bloch sphere.

    Raises:
        NumericalError: when a sample lies within 1e-9 of the patch's excluded
            pole (``where`` names the sampled object in the message).
    """
    colat = np.asarray(colat, dtype=float)
    if patch is GaugePatch.NORTH:
        if np.any(colat > math.pi - 1e-9):
            raise NumericalError(f"{where} reaches the excluded (south) pole of the north patch")
        return 0.5 * (1.0 - np.cos(colat)) * dazimuth
    if np.any(colat < 1e-9):
        raise NumericalError(f"{where} reaches the excluded (north) pole of the south patch")
    return -0.5 * (1.0 + np.cos(colat)) * dazimuth


def connection_vectors(samples: LoopSamples, field: BlochField) -> np.ndarray:
    """Rows V such that each connection sample (per unit s) is V . sigma / 2i."""
    a, psi, axis = samples
    if axis is None:
        n = field.pinned_axis
        e1, e2 = field.transverse_frame
        return np.outer(a, n) + np.outer(psi.real, e1) - np.outer(psi.imag, e2)
    n, dn = _axis_and_rate(*axis)
    dn_cross_n = np.cross(dn, n)
    return a[:, None] * n + dn_cross_n + psi.real[:, None] * dn + psi.imag[:, None] * dn_cross_n


def eigenframe_rate_samples(samples: LoopSamples, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenframe transport rates (c, j) at each sample; see :func:`eigenframe_rates`."""
    a, psi, axis = samples
    if axis is None:
        return q * a, q * psi
    mu, lam, dmu, dlam = axis
    omega = monopole_potential(mu, dlam, where="Bloch axis")
    w = np.exp(-1j * lam) * (dmu - 1j * np.sin(mu) * dlam)
    return q * a - 2.0 * omega, w * (q * psi + 1j * (q - 1.0))


def _point_samples(point: ShapePoint, tangent, field: BlochField, psi, patch: GaugePatch) -> LoopSamples:
    """Transport data at one shape point and tangent, as length-1 arrays."""
    th, ph, dth, dph = (np.array([float(x)]) for x in (point.colatitude, point.azimuth, *tangent))
    axis = None if field.is_pinned else field.angle_samples(th, ph, dth, dph)
    return LoopSamples(monopole_potential(th, dph, patch, "shape point"), np.array([complex(psi)]), axis)


def guichardet_connection(point: ShapePoint, tangent, patch: GaugePatch = GaugePatch.NORTH) -> float:
    """Contraction of the shape-sphere monopole potential with a tangent.

    Raises:
        NumericalError: when evaluated at the patch's excluded pole.
    """
    return float(monopole_potential(point.colatitude, tangent[1], patch, "shape point"))


def bloch_area_potential(
    field: BlochField,
    point: ShapePoint,
    tangent,
    bloch_patch: GaugePatch = GaugePatch.NORTH,
) -> float:
    """Contraction of omega, the unit-monopole potential on the Bloch sphere.

    omega = (1/2)(1 - cos mu) d lambda in the north Bloch patch (the south
    analog when the axis visits the neighbourhood of mu = pi), pulled back
    through the axis field.  Pinned fields give exactly zero.
    """
    if field.is_pinned:
        return 0.0
    mu, _, _, dlam = field.angle_samples(point.colatitude, point.azimuth, *tangent)
    return float(monopole_potential(mu, dlam, bloch_patch, "Bloch axis"))


def connection_vector(
    point: ShapePoint,
    tangent,
    field: BlochField,
    psi: complex,
    patch: GaugePatch = GaugePatch.NORTH,
) -> np.ndarray:
    """Real 3-vector V such that the full connection sample is V . sigma / 2i."""
    return connection_vectors(_point_samples(point, tangent, field, psi, patch), field)[0]


def wilczek_zee_sample(
    point: ShapePoint,
    tangent,
    field: BlochField,
    psi: complex,
    patch: GaugePatch = GaugePatch.NORTH,
    bloch_patch: GaugePatch = GaugePatch.NORTH,
) -> ConnectionSample:
    """Full SU(2) connection on a tangent with its abelian/transverse split."""
    psi = complex(psi)
    if not (np.isfinite(psi.real) and np.isfinite(psi.imag)):
        raise ValidationError("control value must be finite")
    samples = _point_samples(point, tangent, field, psi, patch)
    full = vector_to_su2(connection_vectors(samples, field)[0])
    a = float(samples.a[0])
    if samples.axis is None:
        return ConnectionSample(full, a, psi)
    mu, _, dmu, dlam = (float(x[0]) for x in samples.axis)
    omega = float(monopole_potential(mu, dlam, bloch_patch, "Bloch axis"))
    return ConnectionSample(full, a + omega, psi * (dmu - 1j * math.sin(mu) * dlam))


def section_frame(mu: float, lam: float) -> np.ndarray:
    """SU(2) frame whose columns are the axis eigenvectors, north-regular section.

    Columns: (cos(mu/2), e^{i lam} sin(mu/2)) and (-e^{-i lam} sin(mu/2),
    cos(mu/2)).  Single-valued in lam; ill-defined at mu = pi.
    """
    c, s = math.cos(0.5 * mu), math.sin(0.5 * mu)
    phase = complex(math.cos(lam), math.sin(lam))
    return np.array([[c, -s / phase], [s * phase, c]], dtype=complex)


def section_frame_derivative(mu: float, lam: float, dmu: float, dlam: float) -> np.ndarray:
    """Parameter derivative of :func:`section_frame` along (dmu/ds, dlam/ds)."""
    c, s = math.cos(0.5 * mu), math.sin(0.5 * mu)
    phase = complex(math.cos(lam), math.sin(lam))
    dc, dsn = -0.5 * s * dmu, 0.5 * c * dmu
    return np.array(
        [
            [dc, (-dsn + 1j * s * dlam) / phase],
            [(dsn + 1j * s * dlam) * phase, dc],
        ],
        dtype=complex,
    )


def eigenframe_rates(
    point: ShapePoint,
    tangent,
    field: BlochField,
    psi: complex,
    q: float,
    patch: GaugePatch = GaugePatch.NORTH,
) -> tuple[float, complex]:
    """Exact eigenframe transport rates (c, j) along a tangent.

    The transported state in the instantaneous eigenframe of the axis obeys
    dV/ds = (i/2) [[c, j], [conj(j), -c]] V.  For a pinned field c = q A and
    j = q psi; for an analytic field the basis change contributes the Bloch
    monopole term to the diagonal and a geometric piece to the transverse
    coupling:

        c = q A - 2 omega,
        j = w (q psi + i (q - 1)),   w = e^{-i lam} (dmu - i sin mu dlam).

    These are the rates the trace expansion integrates; they agree with the
    reported (C, J) decomposition exactly in the pinned regime.
    """
    c, j = eigenframe_rate_samples(_point_samples(point, tangent, field, psi, patch), q)
    return float(c[0]), complex(j[0])


def curvature_vector(
    point: ShapePoint,
    field: BlochField,
    psi: complex,
    dpsi: tuple[complex, complex],
    patch: GaugePatch = GaugePatch.NORTH,
    step: float = 1e-5,
) -> np.ndarray:
    """Real 3-vector f with the curvature's theta-phi component f . sigma / 2i.

    Computed as F = dA_full + A_full ^ A_full from the closed-form connection
    components, with the exterior derivative taken by central differences in
    (theta, phi); ``dpsi = (dpsi/dtheta, dpsi/dphi)`` supplies the control's
    local derivative data.
    """
    th0, ph0 = point.colatitude, point.azimuth
    psi = complex(psi)
    dpsi_th, dpsi_ph = complex(dpsi[0]), complex(dpsi[1])
    if not all(
        np.isfinite(x) for x in (psi.real, psi.imag, dpsi_th.real, dpsi_th.imag, dpsi_ph.real, dpsi_ph.imag)
    ):
        raise ValidationError("control derivative data must be finite")

    def comp(th, ph, direction):
        pt = ShapePoint(th, ph % (2 * math.pi))
        tang = (1.0, 0.0) if direction == 0 else (0.0, 1.0)
        local_psi = psi + (th - th0) * dpsi_th + (ph - ph0) * dpsi_ph
        return connection_vector(pt, tang, field, local_psi, patch)

    h = step
    d_th_of_Aphi = (comp(th0 + h, ph0, 1) - comp(th0 - h, ph0, 1)) / (2 * h)
    d_ph_of_Ath = (comp(th0, ph0 + h, 0) - comp(th0, ph0 - h, 0)) / (2 * h)
    a_th = comp(th0, ph0, 0)
    a_ph = comp(th0, ph0, 1)
    # [v.sigma/2i, w.sigma/2i] = (v x w).sigma/2i  (cross-product commutator)
    commutator = np.cross(a_th, a_ph)
    return d_th_of_Aphi - d_ph_of_Ath + commutator


def curvature_sample(
    point: ShapePoint,
    field: BlochField,
    psi: complex,
    dpsi: tuple[complex, complex],
    patch: GaugePatch = GaugePatch.NORTH,
) -> np.ndarray:
    """Curvature theta-phi component as a 2x2 anti-Hermitian matrix."""
    return vector_to_su2(curvature_vector(point, field, psi, dpsi, patch))
