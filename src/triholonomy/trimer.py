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
from numpy.lib.stride_tricks import sliding_window_view

from .connection import monopole_potential
from .errors import (FINITE, MAX_SAMPLES, POSITIVE, NumericalError, ValidationError, at_most, bounded, check,
                     check_fields, count, frozen, guard)
from .holonomy import midpoint_grid
from .shapespace import _check_loop_samples, shape_angles

__all__ = [
    "BondDrive", "TrimerTrajectory", "bond_lengths", "reconstruct_rotation", "phase_sweep",
    "precession_berry_phase", "effective_momentum_series",
]

# Bytes of one (windows, steps) sample array per block of windows: one
# block holds every window of a CLI run up to about 128 periods.
_WINDOW_BLOCK_BYTES = 1 << 22
# Midpoints per window transport at most: integrate_wilson's default step count.
_WINDOW_STEPS = 1024
# (test, phrase) bounds, which the CLI tables read: an amplitude, a drive phase (a larger one only rounds
# omega t + phi) and the vertex masses.
_AMPLITUDE = (lambda v: 0.0 <= v < math.inf, "non-negative and finite")
_TURN = (lambda v: abs(v) <= 2 * math.pi, "within one turn, [-2 pi, 2 pi]")
MASSES = (lambda v: np.shape(v) == (3,) and all(0.0 < m < math.inf for m in v), "three positive finite values")
_PHASES = (lambda v: np.asarray(v).dtype.kind in "iuf" and np.ndim(v) == 1 and np.all(np.abs(v) <= math.pi + 1e-12),
           "a 1-d array of phases within [-pi, pi]")


@dataclass(frozen=True)
class BondDrive:
    """Oscillating-bond drive: one independent bond (1-2) and a symmetric pair.

    xi12 = d12 + a12 cos(omega12 t);  xi13/xi23 = d + a cos(omega t + phi13/phi23).
    Each field declares its bound here (``errors.bounded``), which the CLI's drive table reads; a field that
    fails it, NaN included, or an amplitude not below its mean length is refused by name (ValidationError).
    """

    d12: float = bounded(POSITIVE)
    a12: float = bounded(_AMPLITUDE)
    omega12: float = bounded(POSITIVE)
    d: float = bounded(POSITIVE)
    a: float = bounded(_AMPLITUDE)
    omega: float = bounded(POSITIVE)
    phi13: float = bounded(_TURN, 0.0)
    phi23: float = bounded(_TURN, 0.0)

    def __post_init__(self):
        check_fields(self)
        check("amplitudes (a12, a)", (self.a12, self.a), (lambda v: v[0] < self.d12 and v[1] < self.d,
                                                          f"below the mean lengths (d12, d) = {(self.d12, self.d)!r}"))

    @property
    def fastest_period(self) -> float:
        return 2 * math.pi / max(self.omega, self.omega12)

    def common_period(self) -> float:
        """Least common period of the two oscillations (frequency ratio rational, denominator <= 64), finite."""
        exact = self.omega / self.omega12
        ratio = Fraction(exact).limit_denominator(64) if math.isfinite(exact) else Fraction(0)
        check("frequency ratio omega/omega12", exact, (lambda v: ratio != 0 and abs(float(ratio) - v) <= 1e-9,
                                                       "a nonzero rational p/q with q <= 64 within 1e-9, for a "
                                                       "common period"))
        # omega / omega12 = p / q  =>  T = q * (2 pi / omega12) = p * (2 pi / omega).
        return check(f"common period of the drive frequencies 'omega12' = {self.omega12!r} and 'omega' = "
                     f"{self.omega!r}", ratio.denominator * 2 * math.pi / self.omega12, (math.isfinite, "finite"))

    def time_steps(self, t_end: float, dt: float | None = None) -> tuple[int, float]:
        """Count n and step dt of the time grid k dt, k = 0..n, spanning ``t_end``.

        ``dt`` defaults to 1/512 of the fastest period and must resolve it
        with at least 64 steps; n must lie in [2, MAX_SAMPLES].
        """
        fastest = self.fastest_period
        dt = fastest / 512.0 if dt is None else dt
        for name, value in (("t_end", t_end), ("dt", dt)):
            check(name, value, POSITIVE)
        coarsest = fastest / 64.0 + 1e-15
        check("dt", dt, (lambda v: v <= coarsest, f"at most {coarsest!r}, for 64 steps per fastest period or more"))
        steps = check("time grid's steps t_end / dt", t_end / dt, (
            lambda v: v <= MAX_SAMPLES, f"at most the budget of {MAX_SAMPLES} samples: lower 'periods' or "
            "'steps_per_period' (trimer-sim), or bring 'omega' and 'omega12' closer together (phase-sweep)"))
        return check("time grid's steps round(t_end / dt)", int(round(steps)), count(2)), dt


def bond_lengths(t, drive: BondDrive):
    """Bond length triple (xi12, xi13, xi23) at time(s) t, elementwise: NaN where t is NaN or infinite."""
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):  # cos has no value at an infinite time
        return _bond12(t, drive), *_bond_pair(drive.omega * t, drive, drive.phi13, drive.phi23)


def _bond12(t, drive: BondDrive):
    """xi12 = d12 + a12 cos(omega12 t), the bond that no phase moves."""
    return drive.d12 + drive.a12 * np.cos(drive.omega12 * t)


def _bond_pair(wt, drive: BondDrive, phi13: float, phi23: float) -> tuple:
    """(xi13, xi23) = d + a cos(omega t + phi) from wt = omega t."""
    return tuple(drive.d + drive.a * np.cos(wt + phase) for phase in (phi13, phi23))


class _Frames:
    """Body frames and orientation of one bond pair (xi13, xi23) after another, over a bond 1-2 row ``xi12`` of T
    samples (or one) and the masses.  The phi-free terms of the frame formula (xi12^2, 2 xi12, m_2 xi12 and the total
    mass), the (3, T) frame rows ``x``, ``y`` and the (T - 1, 3) product rows are made once; each pair refills them."""

    def __init__(self, xi12, masses):
        self.xi12, self.m = np.asarray(xi12, dtype=float), np.asarray(masses, dtype=float)
        self.terms = self.xi12**2, 2 * self.xi12, self.m[1] * self.xi12, self.m.sum()
        self.x, self.y = np.empty((2, 3, *self.xi12.shape))
        self.rows = np.empty((self.xi12.size - 1, 3))

    def body(self, xi13, xi23):
        """Canonical-frame rows (x, y) of the bonds, refused by name where a triangle fails, NaN bonds included."""
        xi12, (sq12, twice12, m2_xi12, mass), m3 = self.xi12, self.terms, self.m[2]
        scale = np.maximum(np.maximum(xi12, xi13), xi23)
        slack = np.minimum(np.minimum(xi13 + xi23 - xi12, xi12 + xi13 - xi23), xi12 + xi23 - xi13)
        bad = ~(slack > 1e-9 * scale)  # NaN bonds fail too
        if np.any(bad):
            idx = int(np.argmax(bad))
            bonds = ", ".join(f"{np.broadcast_to(xi, bad.shape).flat[idx]:.6g}" for xi in (xi12, xi13, xi23))
            raise NumericalError(f"triangle inequality violated: bonds ({bonds}) at sample {idx}")
        sq13 = xi13**2
        x3 = (sq13 + sq12 - xi23**2) / twice12
        y3 = np.sqrt(np.maximum(sq13 - x3**2, 0.0))
        for rows, values, centre in ((self.x, (0.0, xi12, x3), (m2_xi12 + m3 * x3) / mass),
                                     (self.y, (0.0, 0.0, y3), m3 * y3 / mass)):
            for i, value in enumerate(values):
                np.subtract(value, centre, out=rows[i, ...])  # straight from the centroid, also for one sample
        return self.x, self.y

    def theta(self, xi13, xi23, dt: float) -> np.ndarray:
        """Zero-angular-momentum orientation theta (T,) of the pair's frames, checked by :func:`_check_momentum`; each
        vertex's cross and dot terms fill a column of the (T - 1, 3) rows, np.stack's layout, that ``@ m`` sums."""
        (x, y), rows, m = self.body(xi13, xi23), self.rows, self.m
        np.subtract(x[:, :-1] * y[:, 1:], y[:, :-1] * x[:, 1:], out=rows.T)
        cross = rows @ m
        np.add(x[:, :-1] * x[:, 1:], y[:, :-1] * y[:, 1:], out=rows.T)
        dot = rows @ m
        theta = np.concatenate(([0.0], np.cumsum(np.arctan2(-cross, dot))))
        step = np.diff(theta)
        _check_momentum(cross, dot, step, _momentum_scale(x, y, step, m, dt), dt)
        return theta


def _rotated(x, y, theta):
    """Rows (x, y) of (3, T) vertex rows rotated by the angles theta (T,)."""
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    return cos_t * x - sin_t * y, sin_t * x + cos_t * y


def _momentum_scale(x, y, step, m, dt: float) -> float:
    """Scale m d^2 omega of the zero-momentum invariant; omega from theta's steps ``diff(theta)``, floored at 1."""
    d = float(np.sqrt(np.max(x * x + y * y)))
    rate = float(np.max(np.abs(step))) / dt if step.size else 0.0
    return float(m.sum()) * d * d * max(rate, 1.0)


@dataclass(frozen=True)
class TrimerTrajectory:
    """Reconstructed trimer motion: body frames, orientation (lab = body rotated by theta) and period n_P."""

    times: np.ndarray
    masses: np.ndarray
    x: np.ndarray  # (3, T) canonical body-frame vertex coordinates
    y: np.ndarray
    theta: np.ndarray  # (T,) reconstructed orientation angle, body to lab
    period_steps: int  # n_P >= 1: x, y and theta's gain per period repeat every n_P samples (T: never)

    def __post_init__(self):
        frozen(self, **{name: np.asarray(getattr(self, name), dtype=float)
                        for name in ("times", "masses", "x", "y", "theta")})
        check("period_steps", self.period_steps, count(1, self.times.size))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def moment_of_inertia(self, end: int | None = None) -> np.ndarray:
        """Planar moment of inertia about the normal through the centroid, per sample (the first ``end``)."""
        return np.einsum("i,it->t", self.masses, self.x[:, :end] ** 2 + self.y[:, :end] ** 2)

    def lab_angular_momentum(self) -> np.ndarray:
        """Central-difference mechanical angular momentum of the lab motion (interior samples)."""
        x, y = _rotated(self.x, self.y, self.theta)
        dx, dy = ((r[:, 2:] - r[:, :-2]) / (2.0 * self.dt) for r in (x, y))
        return np.stack(x[:, 1:-1] * dy - y[:, 1:-1] * dx, axis=-1) @ self.masses

    def angular_momentum_scale(self) -> float:
        """Natural scale m d^2 omega for the zero-momentum invariant."""
        return _momentum_scale(self.x, self.y, np.diff(self.theta), self.masses, self.dt)


def _check_momentum(cross, dot, step, scale: float, dt: float) -> None:
    """Raise NumericalError unless each step's body-frame angular momentum about the normal,
    sum_i m_i r_k,i x R(dtheta_k) r_k+1,i / dt = (cross_k cos dtheta_k + dot_k sin dtheta_k) / dt with
    dtheta = ``step`` = diff(theta), is within 1e-8 of ``scale``.  It is exact for theta's atan2
    increments, so this catches a wrong increment, overflow and NaN (a NaN residual fails)."""
    worst = float(np.abs(cross * np.cos(step) + dot * np.sin(step)).max()) / dt
    guard("zero-angular-momentum invariant's residual", worst,
          (lambda v: v <= 1e-8 * scale, f"at most 1e-8 of scale {scale!r}"))


def reconstruct_rotation(drive: BondDrive, masses, t_end: float, dt: float | None = None) -> TrimerTrajectory:
    """Integrate the zero-angular-momentum orientation for a bond drive.

    The time grid, and the default ``dt``, are :meth:`BondDrive.time_steps`'s.
    The bonds repeat in the common period P of n_P steps, and so do the body
    frames and theta's gain per period, a geometric phase of the shape loop:
    both are built for the n_P + 1 samples of one period with its end and
    tiled, theta[k] = theta_1[k mod n_P] + floor(k / n_P) theta_1[n_P].
    It returns n_P as ``period_steps``: the grid where :func:`_period_steps` finds no repeat.

    Raises:
        ValidationError: the masses or their scale with the bonds, the time step or the sample count is out of range.
        NumericalError: triangle degeneracy during evolution, or the
            zero-angular-momentum invariant failing after integration.
    """
    m = _masses(masses, drive)
    n, dt = drive.time_steps(t_end, dt)
    times = np.arange(n + 1) * dt
    n_p = _period_steps(drive, n, dt)
    xi12, xi13, xi23 = bond_lengths(times[: n_p + 1], drive)
    frames = _Frames(xi12, m)
    theta = frames.theta(xi13, xi23, dt)
    gain = np.repeat(np.arange(n // n_p + 1) * theta[-1], n_p)[: n + 1]  # theta[-1] is theta_1[n_P] if n_p <= n
    x, y, theta = (_tiled(r, n_p, n) for r in (frames.x, frames.y, theta))
    return TrimerTrajectory(times, m, x, y, theta + gain, n_p)


def _masses(masses, drive: BondDrive) -> np.ndarray:
    """The vertex masses as an array, refused by name unless they pass ``MASSES`` and, with the total mass M
    and the largest bond b, M^2 (``_jacobi``'s mass products), 2 b^2 (``_Frames``' sums of squares) and
    2 MAX_SAMPLES M b^2 (the window inertia sums, of MAX_SAMPLES + 1 samples of at most M b^2) are finite;
    with the smallest mass m and the shortest bond b, m^2, b^2 and m b^2 must not underflow (< 2^-1022)."""
    m = np.asarray(check("masses", masses, MASSES), dtype=float)
    mass, bond = sum(m.tolist()), max(drive.d12 + drive.a12, drive.d + drive.a)  # Python floats reach inf quietly
    check(f"masses {m.tolist()} (total M) and largest bond b = max(d12 + a12, d + a) = {bond:.6g} overflow the "
          f"trimer's scale: M^2, 2 b^2 and {2 * MAX_SAMPLES} M b^2", (mass * mass, 2 * bond * bond,
          2 * MAX_SAMPLES * mass * bond * bond), (lambda v: max(v) < math.inf, "finite"))
    least, short = min(m.tolist()), min(drive.d12 - drive.a12, drive.d - drive.a)  # and reach 0 quietly
    check(f"masses {m.tolist()} (smallest m) and shortest bond b = min(d12 - a12, d - a) = {short:.6g} underflow the "
          "trimer's scale: m^2, b^2 and m b^2", (least * least, short * short, least * short * short),
          (lambda v: min(v) >= 2.0**-1022, "at least 2^-1022"))
    return m


def _tiled(rows, n_p: int, n: int) -> np.ndarray:
    """Rows over the samples k = 0..n of the grid as r[k mod n_P], from their first n_P samples."""
    return np.tile(rows[..., :n_p], n // n_p + 1)[..., : n + 1]


def _period_steps(drive: BondDrive, n: int, dt: float) -> int:
    """Steps n_P < n of a common period in which both oscillations of the grid k dt, k = 0..n,
    turn a whole number of times to 1e-14 (dt divides it, the ratio is exact); else n + 1."""
    try:
        n_p = round(drive.common_period() / dt)
    except ValidationError:  # no common period
        return n + 1
    turns = [omega * (n_p * dt / (2 * math.pi)) for omega in (drive.omega, drive.omega12)]
    return n_p if n_p < n and all(abs(k - round(k)) <= 1e-14 * k for k in turns) else n + 1


def phase_sweep(drive_template: BondDrive, masses, phi_values, periods: int = 8) -> np.ndarray:
    """Mean angular velocity over whole common periods for each relative phase.

    The bonds repeat in the common period P, so theta gains the same amount
    in every period, a geometric phase of the shape loop: the mean over any
    number of whole periods is the one-period mean theta(P) / P, so
    ``periods`` is accepted but does not change the result.  The grid of one
    period at the default step (:meth:`BondDrive.time_steps`), omega t and one
    :class:`_Frames` of bond 1-2 are built once.  Each phi, with phi13 = +phi/2
    and phi23 = -phi/2 (the template's phases are ignored), builds only its
    bond pair d + a cos(omega t +- phi/2) and refills the frames and theta,
    the bits of ``reconstruct_rotation(drive, masses, P).theta[-1]``.  A failed
    phase names its phi.  Masses that are not three positive finite values or
    overflow with the bonds (``_masses``), a sweep of more than ``MAX_SAMPLES``
    samples (phases times grid samples) or a phase outside [-pi, pi] is refused first.
    """
    m, phi_values = _masses(masses, drive_template), np.asarray(check("phase grid", phi_values, _PHASES), dtype=float)
    period, n, dt = _sweep_grid(drive_template, phi_values.size)
    times, gains = np.arange(n + 1) * dt, []
    frames, wt = _Frames(_bond12(times, drive_template), m), drive_template.omega * times
    for phi in phi_values.tolist():
        try:
            gains.append(frames.theta(*_bond_pair(wt, drive_template, 0.5 * phi, -0.5 * phi), dt)[-1])  # theta[0] = 0
        except NumericalError as exc:
            raise NumericalError(f"phase sweep at phi = {phi:.6g}: {exc}") from exc
    return np.array(gains) / period


def _sweep_grid(drive: BondDrive, phases: int) -> tuple[float, int, float]:
    """Common period, count n and step dt of a sweep's grid, refused if ``phases`` x (n + 1) > ``MAX_SAMPLES``."""
    period = drive.common_period()
    n, dt = drive.time_steps(period)
    if phases * (n + 1) > MAX_SAMPLES:
        raise ValidationError(f"phase grid of {phases} phases x {n + 1} samples exceeds the budget "
                              f"of {MAX_SAMPLES} samples; lower 'phi_count'")
    return period, n, dt


def precession_berry_phase(
    d: float, a: float, omega: float, phi13: float = math.pi / 4, phi23: float = -math.pi / 4
) -> float:
    """Normalised phase-space area of one bond-precession cycle.

    For the circular precession (phi13 = -phi23 = pi/4, equal amplitudes)
    the displacements (xi13 - d, xi23 - d) trace a circle of radius a once
    per period; the signed area of its 16384 chords over the squared
    precession radius is the accumulated phase, pi for the forward cycle.

    Raises:
        ValidationError: d, omega, a phase or a, in (0, d) and below 2^252, out of its bound, before numpy sees it.
        NumericalError: the drive does not precess on a circle.
    """
    period = (lambda v: 0.0 < v < math.inf and 2 * math.pi / float(v) < math.inf,  # Python floats reach inf quietly
              "positive and finite, with a finite period 2 pi / omega")
    for name, value, bound in (("d", d, POSITIVE), ("omega", omega, period), ("phi13", phi13, _TURN),
                               ("phi23", phi23, _TURN)):
        check(name, value, bound)
    check("a", a, (lambda v: 0 < v < min(d, 2.0**252),
                   f"in (0, d = {float(d)!r}) and below 2^252, where the radius check's sums of a^4 stay finite"))
    t = np.linspace(0.0, 2 * math.pi / omega, 16384 + 1)
    u = a * np.cos(omega * t + phi13)
    v = a * np.cos(omega * t + phi23)
    radius_sq = u**2 + v**2
    mean_r2 = float(np.mean(radius_sq[:-1]))
    if mean_r2 == 0.0 or not float(np.std(radius_sq[:-1])) <= 1e-9 * mean_r2:
        raise NumericalError("drive is not a circular precession (radius varies along the cycle)")
    area = 0.5 * float(np.sum(u[:-1] * v[1:] - v[:-1] * u[1:]))
    return area / mean_r2


def effective_momentum_series(traj: TrimerTrajectory, period: float) -> tuple[np.ndarray, np.ndarray]:
    """Sliding one-period geometric angular momentum estimates.

    A window of one common period starts every ``max(1, n_window // 4)``
    samples; each is mapped to a closed shape loop, and
    2 (I_avg / T) arccos(Tr W / 2) is reported at the window starts.  A
    window is a pinned-axis loop with zero control and unit weight, so its
    holonomy is diagonal and Tr W = 2 cos(eta_T / 2): eta_T is the monopole
    potential summed at ``min(_WINDOW_STEPS, n_window)`` midpoints interpolated
    on the window loop, for n_window <= 1024 the value of ``integrate_wilson``
    to round-off.  All windows share one parameter grid and are gathered in
    row blocks of at most ``_WINDOW_BLOCK_BYTES`` per sample array.  The body
    rows repeat every n_P = ``traj.period_steps`` samples, so windows
    n_P / gcd(n_P, stride) apart read equal samples (canonical phi never
    wraps): each distinct window is computed once and repeated.

    Raises ValidationError for a bad period or an open window loop, and
    NumericalError for a non-finite window phase.
    """
    check("period", period, POSITIVE)
    dt, total = traj.dt, traj.times.size
    n_window = int(round(check(f"window steps period / dt at dt = {dt!r}", period / dt, FINITE)))
    check(f"window period's distance from a whole number of time steps dt = {dt!r}", abs(n_window * dt - period),
          at_most(1e-9 * period))
    check("window samples round(period / dt) + 1", n_window + 1,
          (lambda v: v <= total, f"at most the trajectory's {total}"))
    stride = max(1, n_window // 4)
    starts = np.arange(0, total - n_window, stride, dtype=int)
    cycle = min(starts.size, traj.period_steps // math.gcd(traj.period_steps, stride))
    end = int(starts[cycle - 1]) + n_window + 1  # the samples the distinct windows read
    theta_sh, phi_sh = shape_angles(traj.x[:, :end], traj.y[:, :end], traj.masses)
    # (windows, n_window + 1) views: row w holds the samples of window w.
    th_w, ph_w, inertia_w = (
        sliding_window_view(x, n_window + 1)[::stride]
        for x in (theta_sh, phi_sh, traj.moment_of_inertia(end))
    )
    _check_loop_samples(th_w, ph_w)
    n_steps = min(_WINDOW_STEPS, n_window)

    # Each midpoint's colatitude interpolated on its segment j, and the tangent of segment k = int(s / seg).
    s_mid, ds = midpoint_grid(n_steps)
    grid = np.linspace(0.0, 2 * math.pi, n_window + 1)
    j = np.clip(np.searchsorted(grid, s_mid, side="right") - 1, 0, n_window - 1)
    offset, width = s_mid - grid[j], grid[j + 1] - grid[j]
    seg = 2 * math.pi / n_window
    k = np.clip((s_mid / seg).astype(int), 0, n_window - 1)
    rows = max(1, _WINDOW_BLOCK_BYTES // (8 * n_steps))
    sums = np.empty(cycle)
    for w in range(0, cycle, rows):
        th, ph = th_w[w : w + rows], ph_w[w : w + rows]
        colat = (th[:, j + 1] - th[:, j]) / width * offset + th[:, j]
        sums[w : w + rows] = monopole_potential(colat, (ph[:, k + 1] - ph[:, k]) / seg).sum(axis=1)
    half_eta = 0.5 * ds * sums
    if not np.all(np.isfinite(half_eta)):
        t_bad = traj.times[starts[:cycle]][~np.isfinite(half_eta)][0]
        raise NumericalError(f"window phase is not finite in the window at t = {t_bad:.6g}")
    angles = np.arccos(np.clip(np.cos(half_eta), -1.0, 1.0))
    values = 2.0 * (inertia_w.mean(axis=1) / period) * angles
    return traj.times[starts], values[np.arange(starts.size) % cycle]
