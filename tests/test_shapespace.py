import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triholonomy.errors import ValidationError
from triholonomy.shapespace import (
    JacobiPair,
    PreshapePoint,
    ShapeLoop,
    TriangleConfig,
    hopf_project,
    shape_point_of,
    solid_angle,
    to_jacobi,
    to_preshape,
)


def random_planar_config(rng, masses=None):
    masses = np.array([1.0, 2.0, 3.0]) if masses is None else np.asarray(masses)
    while True:
        verts = np.zeros((3, 3))
        verts[:, :2] = rng.normal(size=(3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        if abs(e1[0] * e2[1] - e1[1] * e2[0]) > 1e-3:
            return TriangleConfig.from_vertices(verts, masses)


class TestTriangleConfig:
    def test_centroid_enforced(self):
        verts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0]])
        with pytest.raises(ValidationError):
            TriangleConfig(verts, np.array([1.0, 1.0, 1.0]))

    def test_from_vertices_recenters(self):
        cfg = TriangleConfig.from_vertices(
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]], [1.0, 1.0, 2.0]
        )
        centroid = cfg.masses @ cfg.vertices
        assert np.linalg.norm(centroid) < 1e-14

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValidationError):
            TriangleConfig.from_vertices(np.eye(3), [1.0, -1.0, 1.0])


class TestToJacobi:
    def test_kinetic_metric_isometry(self):
        # |z1|^2 + |z2|^2 must reproduce the mass-weighted size for any
        # planar configuration: brute-force check on random configurations.
        rng = np.random.default_rng(7)
        for _ in range(100):
            masses = rng.uniform(0.5, 5.0, size=3)
            cfg = random_planar_config(rng, masses)
            pair = to_jacobi(cfg)
            assert pair.size_sq == pytest.approx(cfg.weighted_size_sq, rel=1e-10)

    def test_equilateral_equal_masses_balances_jacobi_norms(self):
        # with the Euclidean-kinetic mass weights the two Jacobi vectors of a
        # unit-side equilateral triangle have equal magnitude
        from triholonomy.trimer import shape_from_bonds

        pair = to_jacobi(shape_from_bonds((1.0, 1.0, 1.0), [1.0, 1.0, 1.0]))
        assert abs(pair.z1) == pytest.approx(abs(pair.z2), rel=1e-12)
        assert abs(pair.z1) == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_collinear_second_vector_vanishes(self):
        cfg = TriangleConfig.from_vertices(
            [[-1.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0]], [1.0, 1.0, 1.0]
        )
        pair = to_jacobi(cfg)
        assert abs(pair.z2) < 1e-14

    def test_reference_drive_triangle_regression(self):
        # Bond triple of the oscillating-bond demo at t = 0 (phases +-pi/4).
        from triholonomy.trimer import shape_from_bonds

        xi13 = 1.0 + 0.15 * math.cos(math.pi / 4)
        cfg = shape_from_bonds((1.3, xi13, xi13), [2.1, 2.1, 4.7])
        pair = to_jacobi(cfg)
        # isosceles symmetry in the canonical frame: z1 real, z2 imaginary
        assert pair.z1.real == pytest.approx(1.3321035995747479, abs=1e-12)
        assert abs(pair.z1.imag) < 1e-12
        assert abs(pair.z2.real) < 1e-12
        assert pair.z2.imag == pytest.approx(1.3327934404297022, abs=1e-12)

    def test_coincident_vertices_rejected(self):
        cfg = TriangleConfig(np.zeros((3, 3)), np.ones(3))
        with pytest.raises(ValidationError):
            to_jacobi(cfg)


class TestToPreshape:
    def test_first_axis_pole(self):
        p = to_preshape(JacobiPair(1.0 + 0j, 0j))
        assert p.size == pytest.approx(1.0)
        assert p.colatitude == pytest.approx(0.0)
        assert p.phase1 == 0.0
        assert p.phase2 == 0.0  # undefined phase pinned to zero

    def test_equal_magnitude_quarter_turn(self):
        p = to_preshape(JacobiPair(1 / math.sqrt(2) + 0j, 1j / math.sqrt(2)))
        assert p.size == pytest.approx(1.0)
        assert p.colatitude == pytest.approx(math.pi / 2)
        assert p.phase1 == pytest.approx(0.0)
        assert p.phase2 == pytest.approx(math.pi / 2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(
            st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
        ).filter(lambda t: math.hypot(math.hypot(t[0], t[1]), math.hypot(t[2], t[3])) > 1e-6)
    )
    def test_round_trip(self, reim):
        pair = JacobiPair(complex(reim[0], reim[1]), complex(reim[2], reim[3]))
        back = to_preshape(pair).reconstruct()
        scale = math.sqrt(pair.size_sq)
        assert abs(back.z1 - pair.z1) < 1e-12 * scale
        assert abs(back.z2 - pair.z2) < 1e-12 * scale

    def test_zero_size_rejected(self):
        with pytest.raises(ValidationError):
            to_preshape(JacobiPair(0j, 0j))

    def test_tiny_negative_phase_stays_below_two_pi(self):
        # -1e-17 % (2 pi) rounds to 2 pi, outside the documented [0, 2 pi)
        p = to_preshape(JacobiPair(1 + 0j, complex(1, -1e-17)))
        assert 0.0 <= p.phase2 < 2 * math.pi


class TestHopfProject:
    def test_pole_is_flagged_azimuth_degenerate(self):
        pt = hopf_project(to_preshape(JacobiPair(1.0 + 0j, 0j)))
        assert pt.azimuth_degenerate and pt.azimuth == 0.0 and pt.colatitude < 1e-9

    def test_tiny_negative_phase_difference_projects(self):
        pt = hopf_project(PreshapePoint(1.0, 1.0, 1e-17, 0.0))
        assert pt.azimuth == 0.0

    def test_phase_difference(self):
        p = to_preshape(JacobiPair(math.cos(0.3) + 1j * math.sin(0.3), 1j))
        pt = hopf_project(p)
        assert pt.colatitude == pytest.approx(math.pi / 2)
        assert pt.azimuth == pytest.approx(math.pi / 2 - 0.3)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 2 * math.pi))
    def test_fiber_invariance(self, alpha):
        z1, z2 = 0.8 + 0.2j, -0.3 + 0.7j
        rot = complex(math.cos(alpha), math.sin(alpha))
        a = hopf_project(to_preshape(JacobiPair(z1, z2)))
        b = hopf_project(to_preshape(JacobiPair(rot * z1, rot * z2)))
        assert b.colatitude == pytest.approx(a.colatitude, abs=1e-12)
        assert math.cos(b.azimuth - a.azimuth) == pytest.approx(1.0, abs=1e-12)

    def test_rigid_rotation_invariance(self):
        # Rotating the triangle about its plane normal leaves the shape point fixed.
        rng = np.random.default_rng(11)
        for _ in range(25):
            cfg = random_planar_config(rng)
            before = shape_point_of(cfg)
            angle = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
            rotated = TriangleConfig.from_vertices(cfg.vertices @ rot.T, cfg.masses)
            after = shape_point_of(rotated)
            assert after.colatitude == pytest.approx(before.colatitude, abs=1e-10)
            assert math.cos(after.azimuth - before.azimuth) == pytest.approx(1.0, abs=1e-10)


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
        assert loop.reversed().orientation == -1

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

    def test_south_patch_equator(self):
        s = np.linspace(0, 2 * math.pi, 4097)
        loop = ShapeLoop.from_samples(np.full_like(s, math.pi / 2), s)
        assert solid_angle(loop, south_patch=True) == pytest.approx(-2 * math.pi, abs=1e-6)


class TestShapeLoop:
    def test_closure_enforced(self):
        th = np.linspace(1.0, 1.1, 33)
        ph = np.linspace(0.0, 1.0, 33)
        with pytest.raises(ValidationError):
            ShapeLoop.from_samples(th, ph)

    def test_minimum_samples(self):
        with pytest.raises(ValidationError):
            ShapeLoop.from_samples(np.full(5, 1.0), np.zeros(5))

    def test_interpolation_and_tangent(self):
        loop = ellipse_loop(math.pi / 2, 0.2, 0.1, n=2048)
        th, ph = loop.at(1.234)
        assert th == pytest.approx(math.pi / 2 + 0.2 * math.cos(1.234), abs=1e-5)
        dth, dph = loop.tangent(1.234)
        assert dth == pytest.approx(-0.2 * math.sin(1.234), abs=1e-3)

    def test_winding_counter(self):
        s = np.linspace(0, 2 * math.pi, 65)
        loop = ShapeLoop.from_samples(np.full_like(s, 1.0), 2 * s)
        assert round((loop.azimuths[-1] - loop.azimuths[0]) / (2 * math.pi)) == 2
