"""Classical trimer with oscillating bonds and zero-angular-momentum rotation.

The drive prescribes the three bond lengths; each time sample is placed in
a canonical body frame (vertices 1-2 along +x, vertex 3 above, mass-weighted
centroid at the origin).  The orientation angle is reconstructed so the
lab-frame mechanical angular momentum about the normal vanishes: each step
applies the rotation increment

    dtheta_k = atan2(-P_k, Q_k),
    P_k = sum_i m_i (b_k,i x b_k+1,i)_z,   Q_k = sum_i m_i b_k,i . b_k+1,i,

which makes the discrete mass-weighted angular momentum of the rotated
frames vanish identically (to round-off) and agrees with the continuum law
dtheta/dt = -L_body / I to second order in the time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .connection import BlochField, ControlField
from .errors import NumericalError, ValidationError
from .holonomy import HolonomyLoop, integrate_wilson
from .shapespace import ShapeLoop, TriangleConfig

__all__ = [
    "BondDrive",
    "TrimerTrajectory",
    "bond_lengths",
    "shape_from_bonds",
    "reconstruct_rotation",
    "phase_sweep",
    "precession_berry_phase",
    "effective_momentum_series",
    "shape_angles",
]


@dataclass(frozen=True)
class BondDrive:
    """Oscillating-bond drive: one independent bond (1-2) and a symmetric pair.

    xi12 = d12 + a12 cos(omega12 t);  xi13/xi23 = d + a cos(omega t + phi13/phi23).
    """

    d12: float
    a12: float
    omega12: float
    d: float
    a: float
    omega: float
    phi13: float = 0.0
    phi23: float = 0.0

    def __post_init__(self):
        if self.omega <= 0 or self.omega12 <= 0:
            raise ValidationError("drive frequencies must be positive")
        if not (0 <= self.a12 < self.d12 and 0 <= self.a < self.d):
            raise ValidationError("amplitudes must be non-negative and below the mean lengths")

    @property
    def fastest_period(self) -> float:
        return 2 * math.pi / max(self.omega, self.omega12)

    def common_period(self, max_denominator: int = 64) -> float:
        """Least common period of the two oscillations (rational frequency ratio)."""
        ratio = Fraction(self.omega / self.omega12).limit_denominator(max_denominator)
        if abs(float(ratio) - self.omega / self.omega12) > 1e-9:
            raise ValidationError(
                "frequency ratio is not rational within tolerance; no common period"
            )
        # omega / omega12 = p / q  =>  T = q * (2 pi / omega12) = p * (2 pi / omega).
        return ratio.denominator * 2 * math.pi / self.omega12


def bond_lengths(t, drive: BondDrive):
    """Bond length triple (xi12, xi13, xi23) at time(s) t."""
    t = np.asarray(t, dtype=float)
    xi12 = drive.d12 + drive.a12 * np.cos(drive.omega12 * t)
    xi13 = drive.d + drive.a * np.cos(drive.omega * t + drive.phi13)
    xi23 = drive.d + drive.a * np.cos(drive.omega * t + drive.phi23)
    return xi12, xi13, xi23


def _body_positions(xi12, xi13, xi23, masses, margin: float = 1e-9):
    """Canonical-frame positions (..., 3, 2) for bond-length arrays."""
    xi12, xi13, xi23 = np.broadcast_arrays(
        np.asarray(xi12, dtype=float), np.asarray(xi13, dtype=float), np.asarray(xi23, dtype=float)
    )
    scale = np.maximum(np.maximum(xi12, xi13), xi23)
    slack = np.minimum(
        np.minimum(xi13 + xi23 - xi12, xi12 + xi13 - xi23), xi12 + xi23 - xi13
    )
    bad = slack <= margin * scale
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NumericalError(
            "triangle inequality violated: bonds "
            f"({xi12.flat[idx]:.6g}, {xi13.flat[idx]:.6g}, {xi23.flat[idx]:.6g}) at sample {idx}"
        )
    x3 = (xi13**2 + xi12**2 - xi23**2) / (2 * xi12)
    y3 = np.sqrt(np.maximum(xi13**2 - x3**2, 0.0))
    zeros = np.zeros_like(xi12)
    p = np.stack(
        [
            np.stack([zeros, zeros], axis=-1),
            np.stack([xi12, zeros], axis=-1),
            np.stack([x3, y3], axis=-1),
        ],
        axis=-2,
    )
    m = np.asarray(masses, dtype=float)
    centroid = np.einsum("i,...ij->...j", m, p) / m.sum()
    return p - centroid[..., None, :]


def shape_from_bonds(bonds, masses) -> TriangleConfig:
    """Canonical body-frame configuration realising the given side lengths.

    Raises:
        NumericalError: triangle inequality violated (margin 1e-9).
    """
    xi12, xi13, xi23 = (float(b) for b in bonds)
    pos = _body_positions(xi12, xi13, xi23, masses)
    verts = np.concatenate([pos, np.zeros((3, 1))], axis=1)
    return TriangleConfig.from_vertices(verts, masses)


@dataclass(frozen=True)
class TrimerTrajectory:
    """Reconstructed trimer motion: body frames, orientation, lab frames."""

    times: np.ndarray
    masses: np.ndarray
    body: np.ndarray  # (T, 3, 2) canonical body-frame positions
    theta: np.ndarray  # (T,) reconstructed orientation angle
    lab: np.ndarray  # (T, 3, 2) rotated (lab-frame) positions

    def __post_init__(self):
        for name in ("times", "masses", "body", "theta", "lab"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def moment_of_inertia(self) -> np.ndarray:
        """Planar moment of inertia about the normal through the centroid, per sample."""
        return np.einsum("i,tij->t", self.masses, self.body**2)

    def lab_angular_momentum(self) -> np.ndarray:
        """Central-difference mechanical angular momentum of the lab motion (interior samples)."""
        r = self.lab
        dr = (r[2:] - r[:-2]) / (2.0 * self.dt)
        mid = r[1:-1]
        cross_z = mid[..., 0] * dr[..., 1] - mid[..., 1] * dr[..., 0]  # (T-2, 3)
        return cross_z @ self.masses

    def angular_momentum_scale(self) -> float:
        """Natural scale m d^2 omega for the zero-momentum invariant."""
        m = float(self.masses.sum())
        d = float(np.sqrt(np.max(np.sum(self.body**2, axis=-1))))
        # rough angular scale from the orientation sweep itself, floored at 1
        rate = float(np.max(np.abs(np.diff(self.theta)))) / self.dt if self.theta.size > 1 else 0.0
        return m * d * d * max(rate, 1.0)


def reconstruct_rotation(
    drive: BondDrive, masses, t_end: float, dt: float | None = None
) -> TrimerTrajectory:
    """Integrate the zero-angular-momentum orientation for a bond drive.

    ``dt`` defaults to 1/512 of the fastest drive period and must resolve it
    with at least 64 steps per period.

    Raises:
        NumericalError: triangle degeneracy during evolution, or the
            zero-angular-momentum invariant failing after integration.
    """
    fastest = drive.fastest_period
    if dt is None:
        dt = fastest / 512.0
    if dt > fastest / 64.0 + 1e-15:
        raise ValidationError("time step too coarse: need >= 64 steps per fastest period")
    n = int(round(t_end / dt))
    if n < 2:
        raise ValidationError("t_end spans fewer than two samples")
    times = np.arange(n + 1) * dt
    xi12, xi13, xi23 = bond_lengths(times, drive)
    body = _body_positions(xi12, xi13, xi23, masses)
    m = np.asarray(masses, dtype=float)

    cross = (body[:-1, :, 0] * body[1:, :, 1] - body[:-1, :, 1] * body[1:, :, 0]) @ m
    dot = np.einsum("tij,tij->ti", body[:-1], body[1:]) @ m
    dtheta = np.arctan2(-cross, dot)
    theta = np.concatenate([[0.0], np.cumsum(dtheta)])

    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rot = np.empty_like(body)
    rot[..., 0] = cos_t[:, None] * body[..., 0] - sin_t[:, None] * body[..., 1]
    rot[..., 1] = sin_t[:, None] * body[..., 0] + cos_t[:, None] * body[..., 1]

    traj = TrimerTrajectory(times, m, body, theta, rot)
    residual = np.abs(traj.lab_angular_momentum())
    scale = traj.angular_momentum_scale()
    if residual.size and float(residual.max()) > 1e-8 * scale:
        raise NumericalError(
            f"zero-angular-momentum invariant violated: residual {residual.max():.3e} "
            f"exceeds 1e-8 of scale {scale:.3e} (reduce dt)"
        )
    return traj


def phase_sweep(
    drive_template: BondDrive,
    masses,
    phi_values,
    periods: int = 8,
    dt: float | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Mean angular velocity over ``periods`` common periods for each relative phase.

    Each grid value phi is run with phi13 = +phi/2, phi23 = -phi/2.
    """
    phi_values = np.asarray(phi_values, dtype=float)
    if np.any(phi_values < -math.pi - 1e-12) or np.any(phi_values > math.pi + 1e-12):
        raise ValidationError("phase grid must lie within [-pi, pi]")

    def rate_for(phi: float) -> float:
        drive = BondDrive(
            drive_template.d12,
            drive_template.a12,
            drive_template.omega12,
            drive_template.d,
            drive_template.a,
            drive_template.omega,
            phi13=0.5 * phi,
            phi23=-0.5 * phi,
        )
        t_end = periods * drive.common_period()
        traj = reconstruct_rotation(drive, masses, t_end, dt)
        return float((traj.theta[-1] - traj.theta[0]) / t_end)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return np.array(list(pool.map(rate_for, phi_values)))
    return np.array([rate_for(float(p)) for p in phi_values])


def precession_berry_phase(
    d: float,
    a: float,
    omega: float,
    phi13: float = math.pi / 4,
    phi23: float = -math.pi / 4,
    n_samples: int = 16384,
) -> float:
    """Normalised phase-space area of one bond-precession cycle.

    For the circular precession (phi13 = -phi23 = pi/4, equal amplitudes)
    the displacements (xi13 - d, xi23 - d) trace a circle of radius a once
    per period; the signed enclosed area divided by the squared precession
    radius is the accumulated phase, pi for the forward cycle.

    Raises:
        NumericalError: the drive does not precess on a circle.
    """
    if a <= 0 or d <= a or omega <= 0:
        raise ValidationError("need 0 < a < d and a positive frequency")
    t = np.linspace(0.0, 2 * math.pi / omega, n_samples + 1)
    u = a * np.cos(omega * t + phi13)
    v = a * np.cos(omega * t + phi23)
    radius_sq = u**2 + v**2
    mean_r2 = float(np.mean(radius_sq[:-1]))
    if mean_r2 == 0.0 or float(np.std(radius_sq[:-1])) > 1e-9 * mean_r2:
        raise NumericalError(
            "drive is not a circular precession (radius varies along the cycle)"
        )
    area = 0.5 * float(np.sum(u[:-1] * v[1:] - v[:-1] * u[1:]))
    return area / mean_r2


def shape_angles(body: np.ndarray, masses) -> tuple[np.ndarray, np.ndarray]:
    """Shape-sphere coordinates (colatitude, unwrapped azimuth) of body frames.

    ``body`` has shape (T, 3, 2); the azimuth is continuity-unwrapped along
    the trajectory.
    """
    m1, m2, m3 = (float(x) for x in np.asarray(masses, dtype=float))
    mu1 = m1 * m2 / (m1 + m2)
    mu2 = (m1 + m2) * m3 / (m1 + m2 + m3)
    p = np.asarray(body, dtype=float)
    z1 = math.sqrt(mu1) * ((p[:, 1, 0] - p[:, 0, 0]) + 1j * (p[:, 1, 1] - p[:, 0, 1]))
    base = (m1 * p[:, 0] + m2 * p[:, 1]) / (m1 + m2)
    z2 = math.sqrt(mu2) * ((p[:, 2, 0] - base[:, 0]) + 1j * (p[:, 2, 1] - base[:, 1]))
    theta = 2.0 * np.arctan2(np.abs(z2), np.abs(z1))
    phi = np.unwrap(np.angle(z2) - np.angle(z1))
    return theta, phi


def effective_momentum_series(
    traj: TrimerTrajectory,
    period: float,
    stride: int | None = None,
    charge: float = 1.0,
    steps: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding one-period geometric angular momentum estimates.

    Each window of one common period is mapped to a closed shape loop, its
    pinned-axis holonomy trace integrated, and the geometric angular
    momentum 2 (I_avg / T) arccos(trace / 2) reported at the window start
    times.
    """
    dt = traj.dt
    n_window = int(round(period / dt))
    if abs(n_window * dt - period) > 1e-9 * period:
        raise ValidationError("time step must divide the window period")
    total = traj.times.size
    if n_window + 1 > total:
        raise ValidationError("trajectory shorter than one window period")
    if stride is None:
        stride = max(1, n_window // 4)
    theta_sh, phi_sh = shape_angles(traj.body, traj.masses)
    inertia = traj.moment_of_inertia()
    starts = np.arange(0, total - n_window, stride, dtype=int)
    values = np.empty(starts.size)
    for w, i0 in enumerate(starts):
        sl = slice(i0, i0 + n_window + 1)
        loop = ShapeLoop.from_samples(theta_sh[sl], phi_sh[sl])
        hloop = HolonomyLoop(
            loop, BlochField.pinned(), ControlField.zero(), charge, min(steps, n_window)
        )
        trace = integrate_wilson(hloop).trace
        half = min(1.0, max(-1.0, trace / 2.0))
        i_avg = float(np.mean(inertia[sl]))
        values[w] = 2.0 * (i_avg / period) * math.acos(half)
    return traj.times[starts], values
