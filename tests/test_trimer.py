import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from triholonomy.connection import LoopSamples, connection_vectors, monopole_potential
from triholonomy.errors import MAX_SAMPLES, NumericalError, ValidationError
from triholonomy.holonomy import HolonomyLoop, _transport, integrate_wilson, midpoint_grid
from triholonomy.shapespace import ShapeLoop
from triholonomy import trimer
from triholonomy.trimer import (
    BondDrive,
    TrimerTrajectory,
    _Frames,
    bond_lengths,
    effective_momentum_series,
    phase_sweep,
    precession_berry_phase,
    reconstruct_rotation,
    shape_angles,
)

REFERENCE_MASSES = [2.1, 2.1, 4.7]


def reference_drive(phi13=math.pi / 4, phi23=-math.pi / 4):
    """Oscillating-bond demo parameters: d=1, a=0.15, d12=1.1, a12=0.2, ratio 3."""
    return BondDrive(1.1, 0.2, 1.0, 1.0, 0.15, 3.0, phi13, phi23)


class TestBondDrive:
    def test_reference_values_at_t0(self):
        drive = reference_drive()
        xi12, xi13, xi23 = bond_lengths(0.0, drive)
        assert xi12 == pytest.approx(1.3)
        assert xi13 == pytest.approx(1.0 + 0.15 * math.cos(math.pi / 4))
        assert xi23 == pytest.approx(xi13)

    def test_constant_bonds(self):
        drive = BondDrive(1.1, 0.0, 1.0, 1.0, 0.0, 3.0)
        t = np.linspace(0, 10, 50)
        xi12, xi13, xi23 = bond_lengths(t, drive)
        assert np.all(xi12 == 1.1) and np.all(xi13 == 1.0) and np.all(xi23 == 1.0)

    def test_equal_phases_keep_isosceles(self):
        drive = reference_drive(phi13=0.7, phi23=0.7)
        t = np.linspace(0, 20, 200)
        _, xi13, xi23 = bond_lengths(t, drive)
        assert np.array_equal(xi13, xi23)

    def test_amplitude_bound(self):
        with pytest.raises(ValidationError):
            BondDrive(1.0, 1.0, 1.0, 1.0, 0.1, 1.0)

    def test_common_period(self):
        drive = reference_drive()
        assert drive.common_period() == pytest.approx(2 * math.pi)

    def test_irrational_ratio_rejected(self):
        drive = BondDrive(1.1, 0.2, 1.0, 1.0, 0.15, math.sqrt(2) * 100)
        with pytest.raises(ValidationError):
            drive.common_period()

    @pytest.mark.parametrize("omega, omega12", [(3.0, 1e12), (3.0, 1e200), (1e-300, 1.0)])
    def test_ratio_rounding_to_zero_rejected(self, omega, omega12):
        # limit_denominator(64) rounds omega/omega12 to 0, and 2 pi/omega12 is no period of the pair
        drive = BondDrive(1.1, 0.2, omega12, 1.0, 0.15, omega)
        refused = (f"^frequency ratio omega/omega12 must be a nonzero rational p/q with q <= 64 within 1e-9, for a "
                   f"common period, got {omega / omega12!r}$")
        with pytest.raises(ValidationError, match=refused):
            drive.common_period()

    @pytest.mark.parametrize("value", [0.0, -1e-3, math.nan, math.inf])
    def test_time_grid_inputs_must_be_positive_and_finite(self, value):
        drive = reference_drive()
        with pytest.raises(ValidationError, match=f"dt must be positive and finite, got {value:.6g}"):
            drive.time_steps(1.0, value)
        with pytest.raises(ValidationError, match=f"t_end must be positive and finite, got {value:.6g}"):
            drive.time_steps(value)
        with pytest.raises(ValidationError, match="dt must be positive"):
            reconstruct_rotation(drive, REFERENCE_MASSES, 1.0, value)

    def test_time_grid_needs_two_samples(self):
        # one default step of 1/512 fastest period spans one sample interval
        drive = reference_drive()
        for t_end in (drive.fastest_period / 512, drive.fastest_period / 1024):
            with pytest.raises(ValidationError, match=r"^time grid's steps round\(t_end / dt\) must be an int in "
                                                      r"\[2, 67108864\], got [01]$"):
                drive.time_steps(t_end)
        assert drive.time_steps(drive.fastest_period / 256)[0] == 2

    @pytest.mark.parametrize("name", ["omega", "omega12"])
    def test_infinite_frequency_rejected(self, name):
        # an infinite frequency has fastest period 0, which the time grid would blame on dt
        params = dict(d12=1.1, a12=0.2, omega12=1.0, d=1.0, a=0.15, omega=3.0)
        params[name] = math.inf
        with pytest.raises(ValidationError, match=f"{name} must be positive and finite, got inf"):
            BondDrive(**params)

    def test_nan_frequency_rejected(self):
        with pytest.raises(ValidationError, match="omega must be positive and finite, got nan"):
            BondDrive(1.1, 0.2, 1.0, 1.0, 0.15, math.nan)

    def test_overflowing_ratio_rejected(self):
        drive = BondDrive(1.1, 0.2, 1e-300, 1.0, 0.15, 1e200)
        with pytest.raises(ValidationError, match="^frequency ratio omega/omega12 must be .+, got inf$"):
            drive.common_period()

    def test_overflowing_period_rejected(self):
        # omega/omega12 = 3 exactly, but 2 pi/omega12 overflows to inf
        drive = BondDrive(1.1, 0.2, 5e-324, 1.0, 0.15, 1.5e-323)
        with pytest.raises(ValidationError, match="^common period of the drive frequencies 'omega12' = 5e-324 and "
                                                  "'omega' = 1.5e-323 must be finite, got inf$"):
            drive.common_period()

    def test_sweep_grid_refuses_a_nan_period_count(self, monkeypatch):
        # inf / inf fastest periods is NaN, which an "exceeds" comparison would let through; time_steps refuses the
        # infinite period itself
        drive = BondDrive(1.1, 0.2, 5e-324, 1.0, 0.15, 1.5e-323)
        monkeypatch.setattr(BondDrive, "common_period", lambda self: math.inf)
        with pytest.raises(ValidationError, match=r"^t_end must be positive and finite, got inf$"):
            trimer._sweep_grid(drive, 1)


class TestShapeFromBonds:
    """Canonical body-frame vertex rows (x, y) of a bond triple, ``_Frames.body``."""

    def test_equilateral_symmetric(self):
        masses = np.array([1.0, 1.0, 1.0])
        x, y = _Frames(1.0, masses).body(1.0, 1.0)
        assert math.hypot(masses @ x, masses @ y) < 1e-14
        d12 = math.hypot(x[1] - x[0], y[1] - y[0])
        assert d12 == pytest.approx(1.0, abs=1e-12)

    def test_isosceles_law_of_cosines(self):
        x, y = _Frames(1.3, REFERENCE_MASSES).body(1.106, 1.106)
        assert math.hypot(x[1] - x[0], y[1] - y[0]) == pytest.approx(1.3, abs=1e-12)
        assert math.hypot(x[2] - x[0], y[2] - y[0]) == pytest.approx(1.106, abs=1e-12)
        assert math.hypot(x[2] - x[1], y[2] - y[1]) == pytest.approx(1.106, abs=1e-12)
        # apex angle from the law of cosines
        cos_apex = (1.106**2 + 1.106**2 - 1.3**2) / (2 * 1.106 * 1.106)
        v1 = (x[0] - x[2], y[0] - y[2])
        v2 = (x[1] - x[2], y[1] - y[2])
        measured = (v1[0] * v2[0] + v1[1] * v2[1]) / (math.hypot(*v1) * math.hypot(*v2))
        assert measured == pytest.approx(cos_apex, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(NumericalError):
            _Frames(2.0, [1.0, 1.0, 1.0]).body(1.0, 1.0)


class TestReconstructRotation:
    def test_no_rotation_for_equal_phases(self):
        drive = reference_drive(phi13=0.0, phi23=0.0)
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, drive.common_period())
        assert abs(traj.theta[-1] - traj.theta[0]) < 1e-6

    def test_reference_linear_growth(self):
        drive = reference_drive()
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 64 * period)
        half = traj.times.size // 2
        t, th = traj.times[half:], traj.theta[half:]
        coeffs = np.polyfit(t, th, 1)
        residual = th - np.polyval(coeffs, t)
        r_squared = 1.0 - np.sum(residual**2) / np.sum((th - th.mean()) ** 2)
        assert r_squared > 0.99
        assert abs(coeffs[0]) > 1e-3  # genuinely rotating

    def test_second_order_in_dt(self):
        drive = reference_drive()
        period = drive.common_period()
        finals = []
        for divisor in (512, 1024, 2048):
            dt = drive.fastest_period / divisor
            steps = int(round(2 * period / dt))
            traj = reconstruct_rotation(drive, REFERENCE_MASSES, steps * dt, dt)
            finals.append(traj.theta[-1])
        change_coarse = abs(finals[0] - finals[1])
        change_fine = abs(finals[1] - finals[2])
        assert 3.0 < change_coarse / change_fine < 5.0

    def test_zero_angular_momentum_invariant(self):
        drive = reference_drive()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 2 * drive.common_period())
        residual = np.abs(traj.lab_angular_momentum()).max()
        assert residual < 1e-8 * traj.angular_momentum_scale()
        # the discrete constraint is satisfied to round-off, far below the bound
        assert residual < 1e-11 * traj.angular_momentum_scale()

    def test_coarse_step_rejected(self):
        drive = reference_drive()
        with pytest.raises(ValidationError):
            reconstruct_rotation(drive, REFERENCE_MASSES, 10.0, drive.fastest_period / 8)

    def test_dynamic_degeneracy_detected(self):
        # bonds pass validation but collapse the triangle at some phase
        drive = BondDrive(2.2, 0.3, 1.0, 1.0, 0.4, 3.0, 0.0, 0.0)
        with pytest.raises(NumericalError, match="triangle inequality"):
            reconstruct_rotation(drive, [1.0, 1.0, 1.0], 2 * drive.common_period())

    def test_painleve_return_at_rest_configurations(self):
        # equal drive phases: all bond velocities vanish together every half
        # slow period; the orientation must return over a full rest-to-rest
        # cycle even for unequal masses (the shape path retraces itself).
        drive = reference_drive(phi13=0.0, phi23=0.0)
        masses = [1.0, 3.0, 2.0]
        period = drive.common_period()
        # verify the rest instants: all three bond rates vanish at 0 and period
        eps = 1e-7
        for t_rest in (0.0, period):
            rates = (np.array(bond_lengths(t_rest + eps, drive))
                     - np.array(bond_lengths(t_rest - eps, drive))) / (2 * eps)
            assert np.max(np.abs(rates)) < 1e-6
        traj = reconstruct_rotation(drive, masses, period)
        assert abs(traj.theta[-1] - traj.theta[0]) < 1e-10
        # interior orientation genuinely moves (unequal masses break mirror symmetry)
        assert np.max(np.abs(traj.theta)) > 1e-4

    def test_time_reversal_symmetry_class(self):
        # For phi13 = -phi23, reversing time and exchanging vertices 1 and 2
        # maps the trajectory onto itself: exact on bond lengths, and on the
        # body frames up to the mirror that implements the vertex exchange.
        chi = 0.6
        drive = reference_drive(phi13=chi, phi23=-chi)
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, period)
        for t in (0.1, 0.4, 1.7):
            xa = bond_lengths(period - t, drive)
            xb = bond_lengths(t, drive)
            assert xa[0] == pytest.approx(xb[0], abs=1e-14)
            assert xa[1] == pytest.approx(xb[2], abs=1e-14)
            assert xa[2] == pytest.approx(xb[1], abs=1e-14)
        # the exchange mirror x -> -x, on the vertex rows reversed in time
        exchange = [1, 0, 2]
        assert np.max(np.abs(traj.x + traj.x[exchange, ::-1])) < 1e-10
        assert np.max(np.abs(traj.y - traj.y[exchange, ::-1])) < 1e-10
        # the rotation increments are palindromic over the period
        dth = np.diff(traj.theta)
        assert np.max(np.abs(dth - dth[::-1])) < 1e-10


# The masses of the benchmark's trimer grid (perfbench/workloads.py MASSES).
BENCHMARK_MASSES = [(2.1, 2.1, 4.7), (1.0, 1.0, 1.0), (1.5, 2.5, 3.5)]
# the benchmark's phase-sweep drive templates
BENCHMARK_DRIVES = [
    BondDrive(1.1, 0.2, 1.0, 1.0, 0.15, 3.0),
    BondDrive(1.0, 0.15, 1.0, 1.0, 0.1, 3.0),
    BondDrive(1.2, 0.2, 1.0, 1.0, 0.12, 3.0),
]
ORACLE_DRIVES = [
    reference_drive(),
    BondDrive(1.2, 0.2, 1.0, 1.0, 0.12, 3.0, math.pi / 3, -math.pi / 6),
]


# (masses, template, phases) of the per-phase sweep reference: an oracle drive on 9 phases, and each benchmark
# drive on the benchmark's 21-phase grid (the sweep ignores a template's phases)
PER_PHASE = [(masses, ORACLE_DRIVES[1], 9) for masses in BENCHMARK_MASSES] + [
    (masses, drive, 21) for drive in BENCHMARK_DRIVES for masses in BENCHMARK_MASSES]
PER_PHASE_IDS = [f"masses{i}" for i in range(3)] + [f"benchmark{j}-21-masses{i}" for j in range(3) for i in range(3)]


def reference_body(xi12, xi13, xi23, masses):
    """Canonical (T, 3, 2) body frames by stacked vertex rows and a mass einsum."""
    x3 = (xi13**2 + xi12**2 - xi23**2) / (2 * xi12)
    y3 = np.sqrt(np.maximum(xi13**2 - x3**2, 0.0))
    zeros = np.zeros_like(xi12)
    p = np.stack(
        [np.stack([zeros, zeros], -1), np.stack([xi12, zeros], -1), np.stack([x3, y3], -1)], -2
    )
    m = np.asarray(masses, dtype=float)
    return p - (np.einsum("i,...ij->...j", m, p) / m.sum())[..., None, :]


def reference_theta(drive, masses, times):
    """(T, 3, 2) body frames and orientation theta at ``times`` by the reference arithmetic."""
    xi12 = drive.d12 + drive.a12 * np.cos(drive.omega12 * times)
    xi13 = drive.d + drive.a * np.cos(drive.omega * times + drive.phi13)
    xi23 = drive.d + drive.a * np.cos(drive.omega * times + drive.phi23)
    body = reference_body(xi12, xi13, xi23, masses)
    m = np.asarray(masses, dtype=float)
    cross = (body[:-1, :, 0] * body[1:, :, 1] - body[:-1, :, 1] * body[1:, :, 0]) @ m
    dot = np.einsum("tij,tij->ti", body[:-1], body[1:]) @ m
    return np.concatenate([[0.0], np.cumsum(np.arctan2(-cross, dot))]), body


def reference_reconstruction(drive, masses, t_end, dt):
    """Reference per-period arithmetic on the (T, 3, 2) layout: theta, body, lab, |residual|, scale.

    theta_1 and the body frames are built over one common period of n_P steps
    and two samples more, and tiled: theta[k] = theta_1[k mod n_P] +
    floor(k / n_P) theta_1[n_P].  A grid of at most one period is built whole.
    """
    n = int(round(t_end / dt))
    n_p = int(round(drive.common_period() / dt))
    if n_p >= n:
        theta, body = reference_theta(drive, masses, np.arange(n + 1) * dt)
    else:
        theta_1, body_1 = reference_theta(drive, masses, np.arange(n_p + 2) * dt)
        periods, k = np.divmod(np.arange(n + 1), n_p)
        theta, body = theta_1[k] + periods * theta_1[n_p], body_1[k]
    m = np.asarray(masses, dtype=float)
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    lab = np.stack([c * body[..., 0] - s * body[..., 1], s * body[..., 0] + c * body[..., 1]], -1)
    dr = (lab[2:] - lab[:-2]) / (2.0 * dt)
    residual = np.abs((lab[1:-1, :, 0] * dr[..., 1] - lab[1:-1, :, 1] * dr[..., 0]) @ m)
    d = float(np.sqrt(np.max(np.sum(body**2, axis=-1))))
    rate = float(np.max(np.abs(np.diff(theta)))) / dt
    return theta, body, lab, residual, float(m.sum()) * d * d * max(rate, 1.0)


def full_grid_trajectory(drive, masses, t_end, dt):
    """Frames and theta built on every sample of the grid, as a caller builds a trajectory by hand."""
    times = np.arange(int(round(t_end / dt)) + 1) * dt
    m = np.asarray(masses, dtype=float)
    xi12, xi13, xi23 = bond_lengths(times, drive)
    frames = _Frames(xi12, m)
    theta = frames.theta(xi13, xi23, dt)
    return TrimerTrajectory(times, m, frames.x, frames.y, theta, times.size)  # no repeat


def repeats(traj, n):
    """Whether the body rows of ``traj`` repeat bit for bit every n samples."""
    return np.array_equal(traj.x[:, n:], traj.x[:, :-n]) and np.array_equal(traj.y[:, n:], traj.y[:, :-n])


def reference_shape_angles(body, masses):
    """(T, 3, 2) frames to (colatitude, unwrapped azimuth) by the Jacobi arithmetic, row-indexed."""
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


class TestReferenceArithmetic:
    @pytest.mark.parametrize("masses", BENCHMARK_MASSES)
    def test_shape_angles_match_reference(self, masses):
        body = np.random.default_rng(11).normal(size=(100_000, 3, 2))
        theta, phi = shape_angles(body[..., 0].T, body[..., 1].T, masses)
        ref_theta, ref_phi = reference_shape_angles(body, masses)
        assert theta.tobytes() == ref_theta.tobytes()
        assert phi.tobytes() == ref_phi.tobytes()

    @pytest.mark.parametrize("masses", BENCHMARK_MASSES)
    @pytest.mark.parametrize("drive", ORACLE_DRIVES)
    @pytest.mark.parametrize("divisor", [512, 100])
    def test_reconstruction_is_bit_identical(self, masses, drive, divisor):
        dt = drive.fastest_period / divisor
        t_end = 2 * drive.common_period()
        traj = reconstruct_rotation(drive, masses, t_end, dt)
        theta, body, lab, residual, scale = reference_reconstruction(drive, masses, t_end, dt)
        assert traj.theta.tobytes() == theta.tobytes()
        assert traj.x.tobytes() == body[..., 0].T.tobytes()
        assert traj.y.tobytes() == body[..., 1].T.tobytes()
        lab_x, lab_y = trimer._rotated(traj.x, traj.y, traj.theta)
        assert lab_x.tobytes() == lab[..., 0].T.tobytes()
        assert lab_y.tobytes() == lab[..., 1].T.tobytes()
        inertia = np.einsum("i,tij->t", np.asarray(masses, dtype=float), body**2)
        assert traj.moment_of_inertia().tobytes() == inertia.tobytes()
        assert np.abs(traj.lab_angular_momentum()).tobytes() == residual.tobytes()
        assert traj.angular_momentum_scale() == scale

    def test_random_bonds_match_reference_frames(self):
        rng = np.random.default_rng(7)
        xi13, xi23 = rng.uniform(0.6, 1.4, size=(2, 100_000))
        xi12 = rng.uniform(np.abs(xi13 - xi23) + 0.05, xi13 + xi23 - 0.05)
        for masses in BENCHMARK_MASSES:
            expected = reference_body(xi12, xi13, xi23, masses)
            x, y = _Frames(xi12, masses).body(xi13, xi23)
            assert x.tobytes() == expected[..., 0].T.tobytes()
            assert y.tobytes() == expected[..., 1].T.tobytes()

    @pytest.mark.parametrize("masses, template, phases", PER_PHASE, ids=PER_PHASE_IDS)
    def test_phase_sweep_matches_reference_per_phase(self, masses, template, phases):
        grid = np.linspace(-math.pi, math.pi, phases)
        periods = 2
        expected = []
        for phi in grid:
            # the mean over periods periods is the one-period mean
            drive = replace(template, phi13=0.5 * phi, phi23=-0.5 * phi)
            period = drive.common_period()
            theta = reference_reconstruction(drive, masses, period, drive.fastest_period / 512)[0]
            expected.append((theta[-1] - theta[0]) / period)
        rates = phase_sweep(template, masses, grid, periods=periods)
        assert rates.tobytes() == np.array(expected).tobytes()


class TestOnePeriod:
    """One common period reconstructed and tiled, against every sample of the grid built whole."""

    @pytest.mark.parametrize("masses", BENCHMARK_MASSES)
    @pytest.mark.parametrize("drive", ORACLE_DRIVES)
    @pytest.mark.parametrize("periods, steps_per_period", [(48, 2048), (7.5, 1536)])
    def test_theta_and_l_eff_match_the_full_grid(self, masses, drive, periods, steps_per_period):
        # at most 1.7e-13 in theta (|theta| up to 7.9) and 1.1e-13 in L_eff (up to 0.08)
        period = drive.common_period()
        dt = period / steps_per_period
        traj = reconstruct_rotation(drive, masses, periods * period, dt)
        full = full_grid_trajectory(drive, masses, periods * period, dt)
        assert repeats(traj, steps_per_period) and not repeats(full, steps_per_period)
        assert np.array_equal(traj.times, full.times)
        assert np.max(np.abs(traj.theta - full.theta)) <= 1e-12
        starts, values = effective_momentum_series(traj, period)
        full_starts, full_values = effective_momentum_series(full, period)
        assert np.array_equal(starts, full_starts)
        assert np.max(np.abs(values - full_values)) <= 1e-12

    @pytest.mark.parametrize("masses", BENCHMARK_MASSES)
    def test_phase_sweep_rate_matches_the_full_grid(self, masses):
        # at most 2.6e-16 against rates up to 0.026
        template = ORACLE_DRIVES[0]
        grid = np.linspace(-math.pi, math.pi, 33)
        expected = []
        for phi in grid:
            drive = replace(template, phi13=0.5 * phi, phi23=-0.5 * phi)
            t_end = 8 * drive.common_period()
            theta = full_grid_trajectory(drive, masses, t_end, drive.fastest_period / 512).theta
            expected.append(theta[-1] / t_end)
        rates = phase_sweep(template, masses, grid, periods=8)
        assert np.max(np.abs(rates - np.array(expected))) <= 1e-15

    def test_repeated_windows_are_bit_identical_to_every_window(self):
        drive = reference_drive()
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 20 * period, period / 1536)
        starts, values = effective_momentum_series(traj, period)
        assert starts.size == 77 and np.array_equal(values[4:], values[:-4])
        # the same rows with the last sample scaled no longer repeat, so every window is computed
        scale = np.ones(traj.times.size)
        scale[-1] += 2.0**-30
        edited = TrimerTrajectory(traj.times, traj.masses, traj.x * scale, traj.y * scale, traj.theta,
                                  traj.times.size)
        assert not repeats(edited, 1536)
        edited_starts, edited_values = effective_momentum_series(edited, period)
        assert np.array_equal(edited_starts, starts)
        assert edited_values[:-1].tobytes() == values[:-1].tobytes()
        assert edited_values[-1] != values[-1]  # the last window reads the scaled sample

    def test_inertia_of_the_first_samples_is_bit_identical(self):
        # effective_momentum_series reads the inertia of the samples its distinct windows read only
        period = reference_drive().common_period()
        traj = reconstruct_rotation(reference_drive(), REFERENCE_MASSES, 3 * period, period / 512)
        for end in (1, 700, traj.times.size):
            assert traj.moment_of_inertia(end).tobytes() == traj.moment_of_inertia()[:end].tobytes()

    def test_hand_built_trajectory_gets_every_window(self):
        # rows that grow in scale keep their shape loop closed, and each window's inertia differs
        drive = reference_drive()
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 3 * period, period / 512)
        grow = 1.0 + 0.5 * traj.times / traj.times[-1]
        built = TrimerTrajectory(traj.times, traj.masses, traj.x * grow, traj.y * grow, traj.theta, traj.times.size)
        starts, values = effective_momentum_series(built, period)
        ref_starts, ref_values = momentum_series_per_window(built, period)
        assert np.array_equal(starts, ref_starts)
        assert np.max(np.abs(values - ref_values)) <= 1e-12
        assert np.all(values[4:] > values[:-4])

    def test_step_that_does_not_divide_the_period_builds_the_whole_grid(self):
        drive = ORACLE_DRIVES[1]
        dt = drive.common_period() / 1536.5
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 3 * drive.common_period(), dt)
        theta, body = reference_theta(drive, REFERENCE_MASSES, traj.times)
        assert traj.theta.tobytes() == theta.tobytes()
        assert traj.x.tobytes() == body[..., 0].T.tobytes()
        assert traj.y.tobytes() == body[..., 1].T.tobytes()
        assert traj.period_steps == traj.times.size

    def test_ratio_off_by_rounding_more_builds_the_whole_grid(self):
        # omega/omega12 = 3 (1 + 1e-12) passes as 3 (its common period is 2 pi), but the fast bonds
        # slip by 6 pi 1e-12 rad a period: tiling would carry that slip, so the grid is built whole
        drive = replace(ORACLE_DRIVES[0], omega=3.0 * (1 + 1e-12))
        assert drive.common_period() == ORACLE_DRIVES[0].common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 3 * drive.common_period())
        theta, body = reference_theta(drive, REFERENCE_MASSES, traj.times)
        assert traj.theta.tobytes() == theta.tobytes()
        assert traj.x.tobytes() == body[..., 0].T.tobytes()
        assert traj.period_steps == traj.times.size

    @pytest.mark.parametrize("periods, steps_per_period", [(20, 1536), (7.5, 512), (2, 192)])
    def test_period_steps_is_the_steps_of_one_common_period(self, periods, steps_per_period):
        period = reference_drive().common_period()
        traj = reconstruct_rotation(reference_drive(), REFERENCE_MASSES, periods * period, period / steps_per_period)
        assert traj.period_steps == steps_per_period
        assert repeats(traj, steps_per_period)

    def test_one_period_grid_has_no_repeat(self):
        period = reference_drive().common_period()
        traj = reconstruct_rotation(reference_drive(), REFERENCE_MASSES, period, period / 1536)
        assert traj.times.size == 1537 and traj.period_steps == 1537

    def test_irrational_frequency_ratio_builds_the_whole_grid(self):
        drive = BondDrive(1.1, 0.2, 1.0, 1.0, 0.15, math.sqrt(2) * 3, math.pi / 4, -math.pi / 4)
        with pytest.raises(ValidationError, match="for a common period"):
            drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 20.0)
        theta, body = reference_theta(drive, REFERENCE_MASSES, traj.times)
        assert traj.theta.tobytes() == theta.tobytes()
        assert traj.x.tobytes() == body[..., 0].T.tobytes()
        assert traj.y.tobytes() == body[..., 1].T.tobytes()
        assert abs(traj.theta[-1]) > 1e-3

    @pytest.mark.parametrize("period_steps", [0, -5, 2.5, True, 1538], ids=["zero", "negative", "float", "bool",
                                                                           "size-plus-one"])
    def test_bad_period_steps_is_refused_by_name(self, period_steps):
        period = reference_drive().common_period()
        traj = reconstruct_rotation(reference_drive(), REFERENCE_MASSES, 3 * period, period / 512)
        assert traj.times.size == 1537
        with pytest.raises(ValidationError, match="period_steps must be an int in \\[1, 1537\\]"):
            replace(traj, period_steps=period_steps)

    def test_period_steps_of_reconstruct_rotation_pass(self):
        # a repeating grid gives the steps of one period, a grid of one period its sample count
        period = reference_drive().common_period()
        for t_end, expected in ((3 * period, 512), (period, 513)):
            traj = reconstruct_rotation(reference_drive(), REFERENCE_MASSES, t_end, period / 512)
            assert traj.period_steps == expected
            assert replace(traj, period_steps=1).period_steps == 1


class TestPhaseSweep:
    def test_zeros_maxima_antisymmetry(self):
        drive = reference_drive(0.0, 0.0)
        grid = np.linspace(-math.pi, math.pi, 17)
        rates = phase_sweep(drive, REFERENCE_MASSES, grid, periods=6)
        peak = np.max(np.abs(rates))
        assert peak > 1e-3
        # vanishes where both phases are zero
        zero_idx = np.argmin(np.abs(grid))
        assert abs(rates[zero_idx]) < 1e-6 * peak
        # maxima at relative phase +-pi/2 within one grid cell
        max_idx = int(np.argmax(np.abs(rates)))
        assert min(abs(abs(grid[max_idx]) - math.pi / 2), 0.0) == 0.0
        cell = grid[1] - grid[0]
        assert abs(abs(grid[max_idx]) - math.pi / 2) <= cell + 1e-12
        # antisymmetric under phase reversal
        assert np.max(np.abs(rates + rates[::-1])) < 1e-6 * peak

    @pytest.mark.parametrize("masses", BENCHMARK_MASSES)
    @pytest.mark.parametrize("template", [*BENCHMARK_DRIVES, reference_drive()])  # the last sets phases, ignored
    def test_rates_are_the_bits_of_one_reconstructed_period(self, masses, template):
        grid = np.linspace(-math.pi, math.pi, 33)
        period = template.common_period()
        expected = [
            reconstruct_rotation(replace(template, phi13=0.5 * phi, phi23=-0.5 * phi), masses, period).theta[-1]
            / period
            for phi in grid.tolist()
        ]
        assert phase_sweep(template, masses, grid).tobytes() == np.array(expected).tobytes()

    def test_sweep_over_the_sample_budget_refused_before_any_phase(self, monkeypatch):
        # 43663 phases of 1537 samples is just over MAX_SAMPLES
        def no_phase(*args):
            raise AssertionError("a phase ran")

        monkeypatch.setattr(trimer._Frames, "theta", no_phase)
        assert (MAX_SAMPLES // 1537 + 1) == 43663
        with pytest.raises(ValidationError, match="phase grid of 43663 phases x 1537 samples exceeds the budget"):
            phase_sweep(reference_drive(), REFERENCE_MASSES, np.zeros(43663))

    def test_grid_range_enforced(self):
        with pytest.raises(ValidationError):
            phase_sweep(reference_drive(0, 0), REFERENCE_MASSES, [4.0])

    @pytest.mark.parametrize("grid", [[math.nan], [0.0, math.nan]])
    def test_nan_phase_rejected_by_name(self, grid):
        with pytest.raises(ValidationError, match=r"^phase grid must be a 1-d array of phases within \[-pi, pi\], "
                                                  r"got "):
            phase_sweep(BondDrive(1.1, 0.2, 1.0, 1.0, 0.15, 3.0), REFERENCE_MASSES, grid)

    def test_failure_names_its_phase(self, monkeypatch):
        # the bonds overflow to NaN frames: the invariant fails closed, naming phi (the scale rule, which
        # refuses this drive first, is bypassed)
        monkeypatch.setattr("triholonomy.trimer._masses", lambda masses, drive: np.asarray(masses, dtype=float))
        drive = BondDrive(1e200, 0.0, 1.0, 1e200, 0.0, 3.0)
        named = r"phi = -3\.14159.*zero-angular-momentum"
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match=named):
            phase_sweep(drive, REFERENCE_MASSES, [-math.pi, 0.0])


def body_frame_products(x, y, masses):
    """cross_k and dot_k of consecutive (3, T) body frames, summed over the vertices one by one."""
    cross = dot = 0.0
    for i, m in enumerate(masses):
        cross = cross + m * (x[i, :-1] * y[i, 1:] - y[i, :-1] * x[i, 1:])
        dot = dot + m * (x[i, :-1] * x[i, 1:] + y[i, :-1] * y[i, 1:])
    return cross, dot


class TestBodyFrameCheck:
    """The zero-angular-momentum identity of each step, checked in the body frame."""

    def shipped_grid(self):
        drive = reference_drive()
        dt = drive.common_period() / 1536
        m = np.asarray(REFERENCE_MASSES, dtype=float)
        xi12, xi13, xi23 = bond_lengths(np.arange(20 * 1536 + 1) * dt, drive)
        frames = _Frames(xi12, m)
        theta = frames.theta(xi13, xi23, dt)
        x, y = frames.x, frames.y
        return (*body_frame_products(x, y, m), theta, trimer._momentum_scale(x, y, np.diff(theta), m, dt), dt)

    def test_residual_is_rounding_on_the_shipped_grid(self):
        cross, dot, theta, scale, dt = self.shipped_grid()
        step = np.diff(theta)
        assert np.max(np.abs(cross * np.cos(step) + dot * np.sin(step))) / dt <= 1e-12 * scale
        trimer._check_momentum(cross, dot, step, scale, dt)

    @pytest.mark.parametrize("error", [1e-9, -1e-9, 1e-3])
    def test_corrupted_increment_refused(self, error):
        cross, dot, theta, scale, dt = self.shipped_grid()
        theta[7000:] += error  # the increment of step 6999 is off by error rad
        with pytest.raises(NumericalError, match=rf"^zero-angular-momentum invariant's residual must be at most 1e-8 "
                                                 rf"of scale {scale!r}, got \d\.\d+(e-07)?$"):
            trimer._check_momentum(cross, dot, np.diff(theta), scale, dt)

    @pytest.mark.parametrize("name", ["cross", "dot", "theta", "scale"])
    def test_nan_refused(self, name):
        values = dict(zip(["cross", "dot", "theta", "scale", "dt"], self.shipped_grid()))
        if name == "scale":
            values[name] = math.nan
        else:
            values[name][3000] = math.nan
        with pytest.raises(NumericalError, match=r"^zero-angular-momentum invariant's residual must be at most 1e-8 "
                                                 r"of scale \S+, got \S+$"):
            trimer._check_momentum(values["cross"], values["dot"], np.diff(values["theta"]), values["scale"],
                                   values["dt"])


class TestFailClosed:
    def test_nan_bonds_rejected(self):
        with pytest.raises(NumericalError, match="triangle inequality"):
            _Frames(math.nan, [1.0, 1.0, 1.0]).body(1.0, 1.0)

    def test_nan_frames_fail_the_invariant(self, monkeypatch):
        # the trimer scale rule refuses this drive first (test_bounds.py); bypassed, the overflow fails closed
        monkeypatch.setattr("triholonomy.trimer._masses", lambda masses, drive: np.asarray(masses, dtype=float))
        drive = BondDrive(1e200, 0.0, 1.0, 1e200, 0.0, 3.0)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="zero-angular-momentum"):
            reconstruct_rotation(drive, REFERENCE_MASSES, drive.common_period())

    def test_time_grid_over_budget_rejected(self):
        drive = reference_drive()
        with pytest.raises(ValidationError, match="time grid"):
            reconstruct_rotation(drive, REFERENCE_MASSES, (MAX_SAMPLES + 1) * drive.fastest_period / 512)
        with pytest.raises(ValidationError, match="time grid"):
            phase_sweep(BondDrive(1.1, 0.2, 1.0, 1.0, 0.15, 1e200), REFERENCE_MASSES, [0.0])

    @pytest.mark.parametrize("masses", [[-1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, -2.0, 1.0], [math.nan, 1.0, 1.0],
                                        [math.inf, 1.0, 1.0], [1.0, 1.0]])
    def test_masses_must_be_three_positive_finite_values(self, masses):
        # [-1, 1, 1] once gave theta(2P) = 0.91 and [0, 1, 1] a finite rate; [1, -2, 1] and NaN failed
        # as a NaN momentum residual
        drive = reference_drive()
        with pytest.raises(ValidationError, match="masses must be three positive finite values"):
            reconstruct_rotation(drive, masses, 2 * drive.common_period())
        with pytest.raises(ValidationError, match="masses must be three positive finite values"):
            phase_sweep(drive, masses, [0.0, 1.0])


class TestPrecessionPhase:
    def test_quarter_phase_drive_gives_pi(self):
        assert precession_berry_phase(1.0, 0.15, 3.0) == pytest.approx(math.pi, abs=1e-6)

    def test_reversed_precession(self):
        phase = precession_berry_phase(1.0, 0.15, 3.0, phi13=-math.pi / 4, phi23=math.pi / 4)
        assert phase == pytest.approx(-math.pi, abs=1e-6)

    def test_amplitude_cancels(self):
        assert precession_berry_phase(1.0, 0.3, 3.0) == pytest.approx(
            precession_berry_phase(1.0, 0.15, 3.0), abs=1e-9
        )

    def test_non_circular_drive_rejected(self):
        with pytest.raises(NumericalError):
            precession_berry_phase(1.0, 0.15, 3.0, phi13=0.3, phi23=-0.8)

    @pytest.mark.parametrize("omega", [math.inf, math.nan, 0.0, -1.0])
    def test_frequency_must_be_positive_and_finite(self, omega):
        # omega = inf once raised two RuntimeWarnings, then "not a circular precession"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="omega must be positive and finite"):
                precession_berry_phase(1.0, 0.15, omega)


def momentum_series_per_window(traj, period):
    """Reference: one ShapeLoop and one SU(2) step-product transport per window.

    A window starts every quarter period and is transported at unit weight
    over at most 1024 steps.  A window of more segments is not a HolonomyLoop
    (its steps are not a multiple of its segments), so the reference samples
    each midpoint itself: the colatitude interpolated on the window loop, and
    the tangent of the segment int(s / seg).  The windows have zero control;
    the reference calls the SU(2) kernel directly.
    """
    n_window = int(round(period / traj.dt))
    theta_sh, phi_sh = shape_angles(traj.x, traj.y, traj.masses)
    inertia = traj.moment_of_inertia()
    starts = np.arange(0, traj.times.size - n_window, max(1, n_window // 4), dtype=int)
    values = np.empty(starts.size)
    for w, i0 in enumerate(starts):
        sl = slice(i0, i0 + n_window + 1)
        loop = ShapeLoop.from_samples(theta_sh[sl], phi_sh[sl])
        s_mid, ds = midpoint_grid(min(1024, n_window))
        seg = 2 * math.pi / n_window
        colat = np.interp(s_mid, np.linspace(0.0, 2 * math.pi, n_window + 1), loop.colatitudes)
        tangent = np.diff(loop.azimuths)[np.clip((s_mid / seg).astype(int), 0, n_window - 1)] / seg
        a = monopole_potential(colat, tangent)
        m = _transport(connection_vectors(LoopSamples(a, np.zeros(a.size, dtype=complex), None)), ds)
        half = min(1.0, max(-1.0, np.trace(m).real / 2.0))
        values[w] = 2.0 * (float(np.mean(inertia[sl])) / period) * math.acos(half)
    return traj.times[starts], values


# When n_window is an even multiple of 1024, each of the 1024 midpoints lands on a node of the window loop,
# and the segment index int(s / seg) picks the side by rounding.
WINDOW_NODES = "FOUND in CHANGES.md: L_eff's window midpoints lie on the loop's nodes at an even multiple of 1024 steps"


class TestEffectiveMomentumSeries:
    @pytest.mark.parametrize(
        "steps_per_period, periods",
        [
            (512, 3),  # n_window < 1024: every window sample is a step
            (1536, 3),  # n_window > 1024: 1024 steps interpolate the window
        ],
    )
    def test_matches_per_window_transport(self, steps_per_period, periods):
        drive = reference_drive()
        period = drive.common_period()
        traj = reconstruct_rotation(
            drive, REFERENCE_MASSES, periods * period, period / steps_per_period
        )
        starts, values = effective_momentum_series(traj, period)
        ref_starts, ref_values = momentum_series_per_window(traj, period)
        assert np.array_equal(starts, ref_starts)
        assert np.max(np.abs(values - ref_values)) <= 1e-12

    @pytest.mark.parametrize("steps_per_period", [
        1024,  # 1.5e-7 measured
        1536,  # 1.4e-8
        pytest.param(2048, marks=pytest.mark.xfail(strict=True, reason=WINDOW_NODES)),  # 2.4e-3
        pytest.param(4096, marks=pytest.mark.xfail(strict=True, reason=WINDOW_NODES)),  # 1.2e-3
    ])
    def test_matches_each_window_transported_at_four_times_its_steps(self, steps_per_period):
        # trimer_reference's drive and masses, three periods; each window is a loop of its own samples
        drive = reference_drive()
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 3 * period, period / steps_per_period)
        starts, values = effective_momentum_series(traj, period)
        theta_sh, phi_sh = shape_angles(traj.x, traj.y, traj.masses)
        inertia = traj.moment_of_inertia()
        ref = []
        for i0 in np.searchsorted(traj.times, starts):
            sl = slice(i0, i0 + steps_per_period + 1)
            loop = HolonomyLoop(ShapeLoop.from_samples(theta_sh[sl], phi_sh[sl]), steps=4 * steps_per_period)
            half = min(1.0, max(-1.0, np.trace(integrate_wilson(loop).matrix).real / 2.0))
            ref.append(2.0 * (float(np.mean(inertia[sl])) / period) * math.acos(half))
        assert np.max(np.abs(values - ref) / np.abs(ref)) <= 1e-6

    def test_window_checks_hold(self):
        drive = reference_drive()
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 2 * period, period / 256)
        effective_momentum_series(traj, 2 * period)  # one window of every sample
        for window, message in ((period / 2, r"^loop's closure gap in colatitude must be at most 1e-10, got "),
                                (period * (1 + 0.5 / 256), r"^window period's distance from a whole number of time "
                                                           r"steps dt = \S+ must be at most \S+, got "),
                                (3 * period, r"^window samples round\(period / dt\) \+ 1 must be at most the "
                                             r"trajectory's 513, got 769$")):
            with pytest.raises(ValidationError, match=message):
                effective_momentum_series(traj, window)

    def test_non_finite_window_phase_fails_closed(self, monkeypatch):
        drive = reference_drive()
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 2 * period)
        monkeypatch.setattr(trimer, "monopole_potential", lambda colat, dphi: np.full(colat.shape, math.inf))
        with pytest.raises(NumericalError, match=r"window phase is not finite in the window at t = 0$"):
            effective_momentum_series(traj, period)

    def test_row_blocks_are_bit_identical(self, monkeypatch):
        drive = reference_drive()
        period = drive.common_period()
        # every window: a trajectory that repeats computes one period of them
        traj = full_grid_trajectory(drive, REFERENCE_MASSES, 8 * period, period / 512)
        _, one_block = effective_momentum_series(traj, period)
        assert one_block.size > 4 * 7
        # 7 windows of 512 steps per block, the last block ragged
        monkeypatch.setattr(trimer, "_WINDOW_BLOCK_BYTES", 7 * 8 * 512)
        _, many_blocks = effective_momentum_series(traj, period)
        assert many_blocks.tobytes() == one_block.tobytes()

    def test_memory_bounded_by_the_row_blocks(self, monkeypatch):
        drive = reference_drive()
        period = drive.common_period()
        traj = full_grid_trajectory(drive, REFERENCE_MASSES, 128 * period, period / 512)  # every window
        monkeypatch.setattr(trimer, "_WINDOW_BLOCK_BYTES", 16 * 8 * 512)  # 16 windows of 512 steps
        tracemalloc.start()
        try:
            starts, _ = effective_momentum_series(traj, period)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 509 windows x 512 steps: one gather of every window peaked near 10 MB, 16 rows at a time near 4.7 MB
        assert starts.size == 127 * 4 + 1
        assert peak < 7e6

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
    def test_bad_period_rejected(self, factor):
        # each must fail as ValidationError before int(round(period / dt)) sees it
        drive = reference_drive()
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 2 * period)
        with pytest.raises(ValidationError, match="^period must be positive and finite, got "):
            effective_momentum_series(traj, factor * period)

    def test_period_whose_step_count_overflows_rejected(self):
        # 1e308 / (2 pi / 512) is inf: int(round(...)) once raised a bare OverflowError
        drive = BondDrive(1.1, 0.2, 1.0, 1.0, 0.15, 3.0)
        traj = reconstruct_rotation(drive, [2.1, 2.1, 4.7], 2 * math.pi, 2 * math.pi / 512)
        with pytest.raises(ValidationError, match=r"^window steps period / dt at dt = 0\.01227184630308513 must be "
                                                  r"finite, got inf$"):
            effective_momentum_series(traj, 1e308)

    def test_mass_scaling_is_exact(self):
        # the shape angles do not change under a common mass scale; the inertia doubles
        drive = reference_drive()
        period = drive.common_period()
        heavy = [2.0 * m for m in REFERENCE_MASSES]
        t1, l1 = effective_momentum_series(reconstruct_rotation(drive, REFERENCE_MASSES, 2 * period), period)
        t2, l2 = effective_momentum_series(reconstruct_rotation(drive, heavy, 2 * period), period)
        assert np.array_equal(t1, t2)
        assert np.max(np.abs(l2 - 2.0 * l1)) <= 1e-12 * np.max(np.abs(l1))

    def test_static_drive_is_zero(self):
        drive = BondDrive(1.1, 0.0, 1.0, 1.0, 0.0, 3.0)
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 2 * period)
        _, values = effective_momentum_series(traj, period)
        assert np.max(np.abs(values)) < 1e-12

    def test_reference_series_converges_to_constant(self):
        drive = reference_drive()
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 8 * period)
        starts, values = effective_momentum_series(traj, period)
        assert np.all(values > 0)
        tail = values[3 * len(values) // 4 :]
        assert (tail.max() - tail.min()) / tail.mean() < 0.02

    def test_equal_phase_drive_is_flat_zero(self):
        drive = reference_drive(0.0, 0.0)
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, 2 * period)
        _, values = effective_momentum_series(traj, period)
        floor = traj.masses.sum() * 1.3**2 / period
        assert np.max(values) < 1e-6 * floor

    def test_reconstruction_matches_shape_holonomy(self):
        # falling-cat consistency: the reconstructed rotation over one period
        # equals minus the loop integral of the abelian shape potential
        drive = reference_drive()
        period = drive.common_period()
        traj = reconstruct_rotation(drive, REFERENCE_MASSES, period)
        theta_sh, phi_sh = shape_angles(traj.x, traj.y, traj.masses)
        integrand = 0.5 * (1.0 - np.cos(theta_sh))
        a_loop = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(phi_sh)))
        d_theta = traj.theta[-1] - traj.theta[0]
        assert d_theta == pytest.approx(-a_loop, abs=1e-5)
