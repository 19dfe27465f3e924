"""Gauge data over the shape sphere: U(1) and SU(2) connection evaluation.

The abelian (Guichardet) part is the potential of a unit monopole on the
shape sphere, written in one of the two standard patches:

    north:  A = (1/2) (1 - cos theta) d phi      (string at the south pole)
    south:  A = -(1/2) (1 + cos theta) d phi     (string at the north pole)

The full SU(2) connection couples a Bloch-axis field ``n`` and a complex
control ``psi``.  For a moving (analytic) axis the lab-frame one-form is

    A_full = [A n + dn x n + Re(psi) dn + Im(psi) dn x n] . sigma / 2i,

while for a *pinned* axis (n = +z, the regime of the explicit gate
constructions) the control couples directly through the fixed right-handed
frame ``PINNED_FRAME`` (e1, e2, n) = (x, y, z):

    A_full = [A n + Re(psi) e1 - Im(psi) e2] . sigma / 2i,

which is the matrix (1/2i) [[A, psi], [conj(psi), -A]].  This is the
standard rescaled-control convention in which ``psi`` is the transverse
connection component per unit loop parameter; it makes (A, psi) an
abelian-Higgs pair under frame rotations about n,

    A -> A + d alpha,   psi -> e^{i q alpha} psi,

exactly (the stated unit-charge law at transport weight q = 1).  Another
constant axis would only rotate the frame: it conjugates the holonomy and
leaves its trace unchanged, so pinned always means +z.

Every quantity is evaluated on arrays of samples (``monopole_potential``,
``connection_vectors``, ``eigenframe_rate_samples``).
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError, at_most, check
from .shapespace import ShapePoint

__all__ = [
    "PINNED_FRAME",
    "GaugePatch",
    "BlochField",
    "ControlField",
    "LoopSamples",
    "monopole_potential",
    "connection_vectors",
    "eigenframe_rate_samples",
    "curvature_vector",
]

_FD_STEP = 1e-6  # central-difference step for angle partials
_CURVATURE_STEP = 1e-5  # central-difference step of the curvature's exterior derivative

# Rows e1, e2, n of the pinned frame: the axis n = +z, the control along e1 = x and e2 = y.
PINNED_FRAME = np.eye(3)
PINNED_FRAME.flags.writeable = False  # one frame serves every caller


class GaugePatch(enum.Enum):
    """Monopole gauge patch: which pole carries the Dirac string."""

    NORTH = "north"  # regular at theta = 0, excluded pole at theta = pi
    SOUTH = "south"  # regular at theta = pi, excluded pole at theta = 0


class BlochField:
    """Quantisation-axis field over the shape sphere.

    Either *pinned* to +z, its control coupling along x and y (see
    ``PINNED_FRAME``), or *analytic*, given by Bloch-sphere angle callables
    ``mu(theta, phi)`` (polar) and ``lam(theta, phi)`` (azimuthal), so that

        n = (cos lam sin mu, sin lam sin mu, cos mu).

    The callables are scalar and are evaluated once per sample point.
    Angle partial derivatives default to central differences; analytic
    partials can be supplied for exactness.
    """

    def __init__(
        self,
        mu: Callable[[float, float], float] | None = None,
        lam: Callable[[float, float], float] | None = None,
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

    @classmethod
    def pinned(cls) -> "BlochField":
        """The one shared field pinned to +z."""
        return _PLUS_Z

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

    def angle_samples(self, th, ph, dth, dph) -> tuple[np.ndarray, ...]:
        """Bloch angles and their rates (mu, lam, dmu/ds, dlam/ds) at sampled points.

        ``th``, ``ph`` are shape-sphere coordinates and ``dth``, ``dph`` the
        tangent (dtheta/ds, dphi/ds) there; all four are arrays of one shape.
        A pinned field's are all zero.
        """
        if self.is_pinned:
            return tuple(np.zeros(np.shape(th)) for _ in range(4))
        mu, lam = self._mu(th, ph), self._lam(th, ph)
        rates = []
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite angle or rate is refused below, by name
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


def _axis_and_rate(mu, lam, dmu, dlam) -> tuple[np.ndarray, np.ndarray]:
    """Unit axes n(mu, lam) and their rates dn/ds, stacked along a last axis of length 3."""
    cm, sm, cl, sl = np.cos(mu), np.sin(mu), np.cos(lam), np.sin(lam)
    n = np.stack([cl * sm, sl * sm, cm], axis=-1)
    dn_dmu = np.stack([cl * cm, sl * cm, -sm], axis=-1)
    dn_dlam = np.stack([-sl * sm, cl * sm, np.zeros_like(sm)], axis=-1)
    return n, np.asarray(dmu)[..., None] * dn_dmu + np.asarray(dlam)[..., None] * dn_dlam


class ControlField:
    """Complex control psi as a function of the loop parameter s in [0, 2 pi].

    ``fn`` is a scalar callable, evaluated once per sampled parameter value.
    Values must be finite wherever the field is sampled, and |psi(0) - psi(2 pi)| < 1e-10
    is enforced.  Controls that wind (the phase-steered Hadamard control, reversed loops'
    controls) are built by the library, through ``_from_arrays(..., check_periodic=False)``.
    """

    def __init__(self, fn: Callable[[float], complex]):
        self._bind(np.vectorize(fn, otypes=[complex]), True)

    @classmethod
    def _from_arrays(cls, values, check_periodic: bool = True) -> "ControlField":
        """Field whose ``values`` maps an array of s to the array of psi (library-built controls)."""
        field = cls.__new__(cls)
        field._bind(values, check_periodic)
        return field

    def _bind(self, values, check_periodic: bool) -> None:
        self._values = values
        v0, v1 = self.at(np.array([0.0, 2 * math.pi]))  # both ends must be finite, checked or not
        if check_periodic:
            check("control field's periodic gap |psi(2 pi) - psi(0)|", abs(v1 - v0), at_most(1e-10))

    @classmethod
    def constant(cls, value: complex) -> "ControlField":
        value = complex(value)
        return cls._from_arrays(lambda s: np.full(np.shape(s), value, dtype=complex))

    @classmethod
    def zero(cls) -> "ControlField":
        """The one shared zero field."""
        return _ZERO

    @classmethod
    def from_samples(cls, values) -> "ControlField":
        """Piecewise-linear interpolation of uniform samples over [0, 2 pi]; they must close."""
        vals = np.asarray(values, dtype=complex)
        grid = np.linspace(0.0, 2 * math.pi, vals.size)
        return cls._from_arrays(lambda s: np.interp(s, grid, vals.real) + 1j * np.interp(s, grid, vals.imag))

    def at(self, s) -> complex | np.ndarray:
        """psi at a parameter value or an array of them.

        Raises:
            ValidationError: if any sampled value is not finite.
        """
        values = np.asarray(self._values(np.asarray(s, dtype=float)), dtype=complex)
        if not np.all(np.isfinite(values)):
            raise ValidationError("control field value is not finite")
        return complex(values) if values.ndim == 0 else values


_PLUS_Z = BlochField()
_ZERO = ControlField.constant(0.0)


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


def connection_vectors(samples: LoopSamples) -> np.ndarray:
    """Component-first V, shape (3, N): sample i (per unit s) is V[:, i] . sigma / 2i; vx, vy, vz = V."""
    a, psi, axis = samples
    if axis is None:
        e1, e2, n = PINNED_FRAME
        return np.stack([a * n[k] + psi.real * e1[k] - psi.imag * e2[k] for k in range(3)])
    n, dn = _axis_and_rate(*axis)
    dn_cross_n = np.cross(dn, n)
    rows = a[:, None] * n + dn_cross_n + psi.real[:, None] * dn + psi.imag[:, None] * dn_cross_n
    return np.moveaxis(rows, -1, 0)


def eigenframe_rate_samples(samples: LoopSamples, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact eigenframe transport rates (c, j) at each sample.

    The transported state in the instantaneous eigenframe of the axis obeys
    dV/ds = (i/2) [[c, j], [conj(j), -c]] V.  For a pinned field c = q A and
    j = q psi; for an analytic field the basis change contributes the Bloch
    monopole term to the diagonal and a geometric piece to the transverse
    coupling:

        c = q A - 2 omega,
        j = w (q psi + i (q - 1)),   w = e^{-i lam} (dmu - i sin mu dlam).

    These are the rates the trace expansion integrates.
    """
    a, psi, axis = samples
    if axis is None:
        return q * a, q * psi
    mu, lam, dmu, dlam = axis
    omega = monopole_potential(mu, dlam, where="Bloch axis")
    w = np.exp(-1j * lam) * (dmu - 1j * np.sin(mu) * dlam)
    return q * a - 2.0 * omega, w * (q * psi + 1j * (q - 1.0))


def _samples_at(th, ph, dth, dph, field: BlochField, psi, patch: GaugePatch, where: str) -> LoopSamples:
    """Transport data at arrays of shape points (th, ph), tangents (dth, dph) and controls psi.

    An analytic axis reads th clipped to [0, pi] and ph mod 2 pi; ``where`` names the object in a pole error.
    """
    axis = None if field.is_pinned else field.angle_samples(np.clip(th, 0.0, math.pi), ph % (2 * math.pi), dth, dph)
    return LoopSamples(monopole_potential(th, dph, patch, where), psi, axis)


def curvature_vector(
    point: ShapePoint, field: BlochField, psi: complex, dpsi: tuple[complex, complex]
) -> np.ndarray:
    """Real 3-vector f with the curvature's theta-phi component f . sigma / 2i, in the north patch.

    Computed as F = dA_full + A_full ^ A_full from the closed-form connection
    components, with the exterior derivative taken by central differences in
    (theta, phi); ``dpsi = (dpsi/dtheta, dpsi/dphi)`` supplies the control's
    local derivative data.
    """
    th0, ph0 = point.colatitude, point.azimuth
    data = check("control data (psi, dpsi/dtheta, dpsi/dphi)", (psi, *dpsi), (lambda v: all(map(cmath.isfinite, v)),
                                                                              "finite"))
    psi, dpsi_th, dpsi_ph = map(complex, data)

    # Stencil rows: A_phi at theta0 +- h, A_theta at phi0 +- h, then A_theta and A_phi at the point.
    h = _CURVATURE_STEP
    check("colatitude of the curvature's point", th0, (lambda v: v - h >= 0.0 and v + h <= math.pi,
                                                       f"at least {h!r} from each pole, for the stencil"))
    th = th0 + h * np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    ph = ph0 + h * np.array([0.0, 0.0, 1.0, -1.0, 0.0, 0.0])
    dth = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    local_psi = psi + (th - th0) * dpsi_th + (ph - ph0) * dpsi_ph
    samples = _samples_at(th, ph, dth, 1.0 - dth, field, local_psi, GaugePatch.NORTH, "shape point")
    v = connection_vectors(samples).T
    d_th_of_Aphi = (v[0] - v[1]) / (2 * h)
    d_ph_of_Ath = (v[2] - v[3]) / (2 * h)
    # [v.sigma/2i, w.sigma/2i] = (v x w).sigma/2i  (cross-product commutator)
    commutator = np.cross(v[4], v[5])
    return d_th_of_Aphi - d_ph_of_Ath + commutator
