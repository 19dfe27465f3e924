import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triholonomy.connection import BlochField
from triholonomy.errors import ValidationError
from triholonomy.holonomy import HolonomyLoop, midpoint_grid
from triholonomy.shapespace import ShapeLoop, _hopf_angles, _jacobi, shape_angles, solid_angle
from triholonomy.trimer import _Frames


def random_planar_frame(rng, masses=None):
    """A non-degenerate planar frame (3, 2) with its mass-weighted centroid at the origin."""
    masses = np.array([1.0, 2.0, 3.0]) if masses is None else np.asarray(masses)
    while True:
        verts = rng.normal(size=(3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        if abs(e1[0] * e2[1] - e1[1] * e2[0]) > 1e-3:
            return verts - masses @ verts / masses.sum()


class TestToJacobi:
    """The mass-weighted Jacobi map ``_jacobi`` of planar vertex rows."""

    def test_kinetic_metric_isometry(self):
        # |z1|^2 + |z2|^2 must reproduce the mass-weighted size for any
        # planar configuration: brute-force check on random configurations.
        rng = np.random.default_rng(7)
        for _ in range(100):
            masses = rng.uniform(0.5, 5.0, size=3)
            r = random_planar_frame(rng, masses)
            z1, z2 = _jacobi(*r.T, masses)
            assert abs(z1) ** 2 + abs(z2) ** 2 == pytest.approx(masses @ (r**2).sum(-1), rel=1e-10)

    def test_equilateral_equal_masses_balances_jacobi_norms(self):
        # with the Euclidean-kinetic mass weights the two Jacobi vectors of a
        # unit-side equilateral triangle have equal magnitude
        masses = [1.0, 1.0, 1.0]
        z1, z2 = _jacobi(*_Frames(1.0, masses).body(1.0, 1.0), masses)
        assert abs(z1) == pytest.approx(abs(z2), rel=1e-12)
        assert abs(z1) == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_collinear_second_vector_vanishes(self):
        z1, z2 = _jacobi([-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert abs(z2) < 1e-14

    def test_reference_drive_triangle_regression(self):
        # Bond triple of the oscillating-bond demo at t = 0 (phases +-pi/4).
        masses = [2.1, 2.1, 4.7]
        xi13 = 1.0 + 0.15 * math.cos(math.pi / 4)
        z1, z2 = _jacobi(*_Frames(1.3, masses).body(xi13, xi13), masses)
        # isosceles symmetry in the canonical frame: z1 real, z2 imaginary
        assert z1.real == pytest.approx(1.3321035995747479, abs=1e-12)
        assert abs(z1.imag) < 1e-12
        assert abs(z2.real) < 1e-12
        assert z2.imag == pytest.approx(1.3327934404297022, abs=1e-12)


class TestToPreshape:
    """Hopf coordinates (colatitude, phase1, phase2) of a Jacobi pair, ``_hopf_angles``."""

    def test_first_axis_pole(self):
        theta, phase1, phase2 = _hopf_angles(1.0 + 0j, 0j)
        assert theta == pytest.approx(0.0)
        assert phase1 == 0.0
        assert phase2 == 0.0  # undefined phase pinned to zero

    def test_equal_magnitude_quarter_turn(self):
        theta, phase1, phase2 = _hopf_angles(1 / math.sqrt(2) + 0j, 1j / math.sqrt(2))
        assert theta == pytest.approx(math.pi / 2)
        assert phase1 == pytest.approx(0.0)
        assert phase2 == pytest.approx(math.pi / 2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(
            st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
        ).filter(lambda t: math.hypot(math.hypot(t[0], t[1]), math.hypot(t[2], t[3])) > 1e-6)
    )
    def test_round_trip(self, reim):
        # Z = rho (cos(theta/2) e^{i phase1}, sin(theta/2) e^{i phase2}) gives the pair back
        z1, z2 = complex(reim[0], reim[1]), complex(reim[2], reim[3])
        theta, phase1, phase2 = _hopf_angles(z1, z2)
        scale = math.hypot(abs(z1), abs(z2))
        assert abs(scale * math.cos(theta / 2) * np.exp(1j * phase1) - z1) < 1e-12 * scale
        assert abs(scale * math.sin(theta / 2) * np.exp(1j * phase2) - z2) < 1e-12 * scale


class TestHopfProject:
    """The shape-sphere point (theta, phase2 - phase1) of the Hopf coordinates."""

    def test_phase_difference(self):
        theta, phase1, phase2 = _hopf_angles(math.cos(0.3) + 1j * math.sin(0.3), 1j)
        assert theta == pytest.approx(math.pi / 2)
        assert phase2 - phase1 == pytest.approx(math.pi / 2 - 0.3)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 2 * math.pi))
    def test_fiber_invariance(self, alpha):
        z1, z2 = 0.8 + 0.2j, -0.3 + 0.7j
        rot = complex(math.cos(alpha), math.sin(alpha))
        theta_a, *phases_a = _hopf_angles(z1, z2)
        theta_b, *phases_b = _hopf_angles(rot * z1, rot * z2)
        assert theta_b == pytest.approx(theta_a, abs=1e-12)
        gap = (phases_b[1] - phases_b[0]) - (phases_a[1] - phases_a[0])
        assert math.cos(gap) == pytest.approx(1.0, abs=1e-12)

    def test_rigid_rotation_invariance(self):
        # Rotating the triangle about its plane normal leaves the shape point fixed.
        rng = np.random.default_rng(11)
        masses = np.array([1.0, 2.0, 3.0])
        for _ in range(25):
            frame = random_planar_frame(rng, masses)
            before = shape_angles(*frame.T[..., None], masses)
            angle = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, -s], [s, c]])
            after = shape_angles(*(frame @ rot.T).T[..., None], masses)
            assert after[0][0] == pytest.approx(before[0][0], abs=1e-10)
            assert math.cos(after[1][0] - before[1][0]) == pytest.approx(1.0, abs=1e-10)


def ellipse_loop(theta0, a, b, n=1024):
    s = np.linspace(0, 2 * math.pi, n + 1)
    return ShapeLoop.from_samples(theta0 + a * np.cos(s), (b / math.sin(theta0)) * np.sin(s))


class TestSolidAngle:
    def test_small_ellipse_area(self):
        loop = ellipse_loop(math.pi / 2, 0.1, 0.1, n=256)
        assert solid_angle(loop) == pytest.approx(math.pi * 0.01, rel=0.01)

    def test_point_loop(self):
        s = np.linspace(0, 2 * math.pi, 65)
        loop = ShapeLoop.from_samples(np.full(65, 1.0), np.full(65, 0.5))
        assert solid_angle(loop) == 0.0

    def test_equator(self):
        s = np.linspace(0, 2 * math.pi, 4097)
        loop = ShapeLoop.from_samples(np.full_like(s, math.pi / 2), s)
        assert solid_angle(loop) == pytest.approx(2 * math.pi, abs=1e-6)

    def test_orientation_flip_is_exact(self):
        loop = ellipse_loop(1.1, 0.15, 0.2)
        assert solid_angle(loop.reversed()) == -solid_angle(loop)

    def test_area_law_convergence(self):
        # relative error of the pi*a*b law shrinks linearly in a^2
        sizes = np.array([0.2, 0.1, 0.05])
        errs = [
            abs(solid_angle(ellipse_loop(math.pi / 2, a, a, n=4096)) / (math.pi * a * a) - 1.0)
            for a in sizes
        ]
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert 1.7 < slope / 2 * 2 and slope == pytest.approx(2.0, abs=0.3)

    def test_pole_crossing_rejected(self):
        s = np.linspace(0, 2 * math.pi, 65)
        loop = ShapeLoop.from_samples(math.pi - 1e-8 + 0 * s, s)
        with pytest.raises(Exception):
            solid_angle(loop)


class TestShapeLoop:
    def test_closure_enforced(self):
        th = np.linspace(1.0, 1.1, 33)
        ph = np.linspace(0.0, 1.0, 33)
        with pytest.raises(ValidationError):
            ShapeLoop.from_samples(th, ph)

    def test_azimuth_closure_enforced(self):
        # the colatitude closes; the azimuth ends 1 rad from its start, not a whole number of turns
        with pytest.raises(ValidationError, match=r"^loop's closure gap in azimuth must be at most 1e-10, got 1\.0$"):
            ShapeLoop(np.full(33, 1.0), np.linspace(0.0, 1.0, 33))

    def test_minimum_samples(self):
        with pytest.raises(ValidationError):
            ShapeLoop.from_samples(np.full(5, 1.0), np.zeros(5))

    @pytest.mark.parametrize("colatitudes, azimuths", [
        (np.ones((2, 33)), np.ones((2, 33))), (np.ones(33), np.ones(34)), (np.ones(33), np.ones((33, 1))),
    ], ids=["2-d", "unequal", "column"])
    def test_samples_must_be_equal_1d_arrays(self, colatitudes, azimuths):
        with pytest.raises(ValidationError, match="colatitude/azimuth sample arrays must be 1-d and equal length"):
            ShapeLoop(colatitudes, azimuths)

    @pytest.mark.parametrize("index, value", [(0, math.nan), (1, math.inf)])
    def test_non_finite_samples_rejected(self, index, value):
        samples = [np.full(33, 1.0), np.zeros(33)]
        samples[index][7] = value
        with pytest.raises(ValidationError, match="non-finite loop samples"):
            ShapeLoop(*samples)

    @pytest.mark.parametrize("value", [-1e-3, math.pi + 1e-3])
    def test_colatitudes_must_lie_on_the_sphere(self, value):
        th = np.full(33, 1.0)
        th[10] = value
        with pytest.raises(ValidationError, match=r"colatitude samples outside \[0, pi\]"):
            ShapeLoop(th, np.zeros(33))

    def test_interpolation_and_tangent(self):
        # a transport reads the loop piecewise linearly at its step midpoints; the radial axis field's angles
        # and rates are the loop's colatitude, azimuth and tangent there
        loop = ellipse_loop(math.pi / 2, 0.2, 0.1, n=2048)
        s, _ = midpoint_grid(4096)
        th, ph, dth, dph = HolonomyLoop(loop, BlochField.radial(), steps=4096).sample().axis
        assert np.max(np.abs(th - (math.pi / 2 + 0.2 * np.cos(s)))) <= 1e-5
        assert np.max(np.abs(np.sin(ph) - np.sin(0.1 * np.sin(s)))) <= 1e-5
        assert np.max(np.abs(dth + 0.2 * np.sin(s))) <= 1e-3
        assert np.max(np.abs(dph - 0.1 * np.cos(s))) <= 1e-3

    def test_winding_counter(self):
        s = np.linspace(0, 2 * math.pi, 65)
        loop = ShapeLoop.from_samples(np.full_like(s, 1.0), 2 * s)
        assert round((loop.azimuths[-1] - loop.azimuths[0]) / (2 * math.pi)) == 2
