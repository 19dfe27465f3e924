import math

import numpy as np
import pytest
from scipy.linalg import logm

from triholonomy import holonomy
from triholonomy.connection import (
    PINNED_FRAME,
    BlochField,
    ControlField,
    GaugePatch,
    _axis_and_rate,
    _samples_at,
    connection_vectors,
    curvature_vector,
    eigenframe_rate_samples,
    monopole_potential,
)
from triholonomy.errors import NumericalError, ValidationError
from triholonomy.gates import make_ellipse_loop, synth_hadamard_gate
from triholonomy.holonomy import (
    HolonomyLoop,
    integrate_wilson,
    midpoint_grid,
    ordered_product,
    su2_exponentials,
    wilson_from_rates,
    wilson_from_samples,
)
from triholonomy.shapespace import ShapeLoop, ShapePoint


def smooth_field():
    return BlochField.from_angles(
        mu=lambda th, ph: 0.8 + 0.25 * math.sin(th) * math.cos(ph) + 0.15 * math.cos(th + 2 * ph),
        lam=lambda th, ph: 0.5 * ph + 0.3 * math.sin(th - ph),
    )


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def su2_of(v):
    """v . sigma / 2i for a real 3-vector v (anti-Hermitian traceless)."""
    return np.einsum("k,kij->ij", np.asarray(v, dtype=float), PAULI) / 2j


def sample_at(pt, tangent, field, psi):
    """Transport data at one shape point, tangent (dtheta, dphi) and control value."""
    th, ph, dth, dph = (np.array([float(x)]) for x in (pt.colatitude, pt.azimuth, *tangent))
    return _samples_at(th, ph, dth, dph, field, np.array([complex(psi)]), GaugePatch.NORTH, "shape point")


def axis_and_rate(field, th, ph, dth, dph):
    """Axes n and rates dn/ds at arrays of shape points and tangents, from the array kernels."""
    th, ph, dth, dph = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (th, ph, dth, dph)))
    return _axis_and_rate(*field.angle_samples(th, ph % (2 * math.pi), dth, dph))


def random_tangents(rng, n, lo, hi):
    """Arrays (th, ph, dth, dph) of n shape points with colatitude in [lo, hi], drawn point by point."""
    draws = [
        (rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi), rng.normal(), rng.normal()) for _ in range(n)
    ]
    return np.array(draws).T


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


class TestGuichardet:
    """The shape-sphere monopole potential (Guichardet connection) on tangents."""

    def test_equator_value_north(self):
        assert monopole_potential(math.pi / 2, 1.0) == pytest.approx(0.5)

    def test_regular_at_own_pole(self):
        assert monopole_potential(1e-7, 1.0) == pytest.approx(0.0, abs=1e-13)

    def test_excluded_pole_raises(self):
        with pytest.raises(NumericalError):
            monopole_potential(math.pi, 1.0)
        with pytest.raises(NumericalError):
            monopole_potential(0.0, 1.0, GaugePatch.SOUTH)

    def test_equator_loop_integrals_and_transition(self):
        # north gives +pi, south -pi; the difference is one 2 pi monopole unit
        s = np.linspace(0, 2 * math.pi, 513)
        colat, dazimuth = np.full(512, math.pi / 2), np.ones(512)
        ds = s[1] - s[0]
        north = np.sum(monopole_potential(colat, dazimuth)) * ds
        south = np.sum(monopole_potential(colat, dazimuth, GaugePatch.SOUTH)) * ds
        assert north == pytest.approx(math.pi, abs=1e-12)
        assert south == pytest.approx(-math.pi, abs=1e-12)
        assert north - south == pytest.approx(2 * math.pi, abs=1e-12)


class TestBlochAxis:
    """Axis n and its rate dn/ds from ``BlochField.angle_samples`` and ``_axis_and_rate``."""

    def test_pinned(self):
        n, dn = axis_and_rate(BlochField.pinned(), 1.0, 2.0, 0.3, -0.4)
        assert np.allclose(n, [0, 0, 1])
        assert np.allclose(dn, 0.0)

    def test_radial_equator_rate(self):
        n, dn = axis_and_rate(BlochField.radial(), math.pi / 2, 0.7, 0.0, 1.0)
        assert np.linalg.norm(n - [math.cos(0.7), math.sin(0.7), 0.0]) < 1e-12
        assert np.linalg.norm(dn) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.dot(n, dn)) < 1e-14

    def test_finite_difference_oracle(self):
        # dn/ds along parametrised paths vs central differences of n(s)
        field = smooth_field()
        rng = np.random.default_rng(5)
        th0, ph0, vth, vph = random_tangents(rng, 10, 0.5, 2.5)

        def n_of(s):
            return axis_and_rate(field, th0 + vth * s, ph0 + vph * s, 0.0, 0.0)[0]

        _, dn = axis_and_rate(field, th0, ph0, vth, vph)
        h = 1e-5
        fd = (n_of(h) - n_of(-h)) / (2 * h)
        assert np.max(np.linalg.norm(dn - fd, axis=1)) < 1e-6

    def test_orthogonality_always(self):
        field = smooth_field()
        rng = np.random.default_rng(6)
        n, dn = axis_and_rate(field, *random_tangents(rng, 20, 0.3, 2.8))
        assert np.max(np.abs(np.sum(n * dn, axis=1))) < 1e-10

    def test_pinned_frame_orthonormal_and_right_handed(self):
        # (e1, e2, n) is orthonormal with e1 x e2 = n, and n is the pinned field's axis
        e1, e2, n = PINNED_FRAME
        assert np.array_equal(PINNED_FRAME @ PINNED_FRAME.T, np.eye(3))
        assert np.array_equal(np.cross(e1, e2), n)
        assert np.array_equal(axis_and_rate(BlochField.pinned(), 1.0, 2.0, 0.3, -0.4)[0], n)
        # the frame carries psi into the (1/2i) [[A, psi], [conj(psi), -A]] coupling
        psi = 0.3 - 0.4j
        samples = sample_at(ShapePoint(1.0, 0.5), (0.2, 1.3), BlochField.pinned(), psi)
        full = su2_of(connection_vectors(samples)[:, 0])
        a = samples.a[0]
        assert np.max(np.abs(full - np.array([[a, psi], [np.conj(psi), -a]]) / 2j)) <= 1e-15

    def test_analytic_field_needs_both_angles(self):
        for angles in ({"mu": lambda th, ph: th}, {"lam": lambda th, ph: ph}):
            with pytest.raises(ValidationError, match="analytic fields need both mu and lam callables"):
                BlochField(**angles)

    @pytest.mark.parametrize("angles", [
        {"mu": lambda th, ph: math.nan, "lam": lambda th, ph: ph},
        {"mu": lambda th, ph: th, "lam": lambda th, ph: math.inf},
        {"mu": lambda th, ph: th, "lam": lambda th, ph: ph, "mu_partials": lambda th, ph: (math.inf, 0.0)},
    ], ids=["mu-nan", "lam-inf", "rate-inf"])
    def test_non_finite_angles_or_rates_rejected(self, angles):
        # an infinite angle once warned in its finite-difference rate (inf - inf) before the refusal
        loop = HolonomyLoop(make_ellipse_loop(math.pi / 2, 0.1, 0.1, 64), BlochField.from_angles(**angles))
        with pytest.raises(ValidationError, match="Bloch field angles and their rates must be finite"):
            integrate_wilson(loop)

    def test_default_fields_are_shared_and_read_only(self):
        # one +z frame, one +z field and one zero control serve every caller, so no caller may write to them
        assert PINNED_FRAME.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert not PINNED_FRAME.flags.writeable and not any(v.flags.writeable for v in PINNED_FRAME)
        with pytest.raises(ValueError):
            PINNED_FRAME[2, 2] = -1.0
        assert holonomy.PINNED_FRAME is PINNED_FRAME
        assert BlochField.pinned() is BlochField.pinned()
        assert ControlField.zero() is ControlField.zero()
        loop = HolonomyLoop(make_ellipse_loop(math.pi / 2, 0.1, 0.1, 64))
        assert loop.bloch is BlochField.pinned() and loop.control is ControlField.zero()


class TestAreaPotential:
    """omega, the Bloch-sphere monopole potential pulled back through the axis field."""

    def test_pinned_zero(self):
        mu, _, _, dlam = BlochField.pinned().angle_samples(*np.array([[1.0], [1.0], [1.0], [2.0]]))
        assert monopole_potential(mu, dlam, where="Bloch axis")[0] == 0.0

    def test_radial_field_matches_guichardet(self):
        rng = np.random.default_rng(8)
        th, ph, dth, dph = random_tangents(rng, 20, 0.2, 2.6)
        mu, _, _, dlam = BlochField.radial().angle_samples(th, ph, dth, dph)
        omega = monopole_potential(mu, dlam, where="Bloch axis")
        assert np.max(np.abs(omega - monopole_potential(th, dph))) <= 1e-10

    def test_stokes_area(self):
        # loop integral of omega ~ half the signed area swept by the axis image
        field = smooth_field()
        n_samp = 2048
        s = np.linspace(0, 2 * math.pi, n_samp + 1)
        radius = 0.05
        ds = s[1] - s[0]
        sm = s[:-1] + 0.5 * ds
        th, ph = 1.2 + radius * np.cos(sm), (0.8 + radius * np.sin(sm)) % (2 * math.pi)
        mu, lam, dmu, dlam = field.angle_samples(th, ph, -radius * np.sin(sm), radius * np.cos(sm))
        total = np.sum(monopole_potential(mu, dlam, where="Bloch axis")) * ds
        images = _axis_and_rate(mu, lam, dmu, dlam)[0]
        center = images.mean(axis=0)
        center /= np.linalg.norm(center)
        # triangulate the swept cap against the mean direction
        swept = 0.5 * np.sum(np.cross(images - center, np.roll(images, -1, axis=0) - center) @ center)
        assert total == pytest.approx(0.5 * swept, rel=0.01)

    def test_bloch_pole_guard(self):
        field = BlochField.from_angles(mu=lambda th, ph: math.pi - 1e-12, lam=lambda th, ph: ph)
        mu, _, _, dlam = field.angle_samples(*np.array([[1.0], [1.0], [0.0], [1.0]]))
        with pytest.raises(NumericalError):
            monopole_potential(mu, dlam, where="Bloch axis")


class TestWilczekZeeSample:
    def test_pinned_collapse(self):
        pt = ShapePoint(1.0, 0.4)
        tang = (0.2, 1.3)
        samples = sample_at(pt, tang, BlochField.pinned(), 0.0)
        c, j = eigenframe_rate_samples(samples, 1.0)
        full = su2_of(connection_vectors(samples)[:, 0])
        a = monopole_potential(pt.colatitude, tang[1])
        assert c[0] == pytest.approx(a)
        assert j[0] == 0.0
        expected = a * np.array([[1, 0], [0, -1]], dtype=complex) / 2j
        assert np.allclose(full, expected, atol=1e-15)

    def test_traceless_antihermitian(self):
        field = smooth_field()
        rng = np.random.default_rng(9)
        for _ in range(30):
            pt = ShapePoint(rng.uniform(0.3, 2.7), rng.uniform(0, 2 * math.pi))
            psi = complex(rng.normal(), rng.normal())
            samples = sample_at(pt, (rng.normal(), rng.normal()), field, psi)
            m = su2_of(connection_vectors(samples)[:, 0])
            assert abs(np.trace(m)) < 1e-12
            assert np.max(np.abs(m + m.conj().T)) < 1e-12

    def test_pinned_reassembly_exact(self):
        pt = ShapePoint(0.9, 5.1)
        tang = (0.7, -0.2)
        psi = 0.3 - 0.4j
        samples = sample_at(pt, tang, BlochField.pinned(), psi)
        full = su2_of(connection_vectors(samples)[:, 0])
        c, j = (x[0] for x in eigenframe_rate_samples(samples, 1.0))
        assert j == psi
        reassembled = np.array([[c, j], [np.conj(j), -c]], dtype=complex) / 2j
        assert np.max(np.abs(reassembled - full)) < 1e-10

    def test_analytic_has_transverse_part(self):
        samples = sample_at(ShapePoint(1.0, 0.5), (1.0, 0.5), smooth_field(), 0.0)
        full = su2_of(connection_vectors(samples)[:, 0])
        assert abs(full[0, 1]) > 1e-3  # geometric axis motion couples off-diagonally
        _, j = eigenframe_rate_samples(samples, 1.0)
        assert j[0] == 0.0  # control coefficient itself vanishes at psi = 0 (and q = 1)

    def test_eigenframe_identity(self):
        # The closed-form transport rates match the frame-rotated connection:
        #   (i/2) [[c, j], [j*, -c]] == -(q G^dag A_full G + G^dag dG/ds)
        field = smooth_field()
        rng = np.random.default_rng(10)
        th, ph = rng.uniform(0.5, 2.2, 10), rng.uniform(0.1, 6.0, 10)
        dth, dph = rng.normal(size=10), rng.normal(size=10)
        psi = 0.4 * (rng.normal(size=10) + 1j * rng.normal(size=10))
        samples = _samples_at(th, ph, dth, dph, field, psi, GaugePatch.NORTH, "shape point")
        vectors = connection_vectors(samples).T  # rows, for su2_of
        for q in (0.5, 1.0, 2.0, 3.5):
            c, j = eigenframe_rate_samples(samples, q)
            for k, (mu, lam, dmu, dlam) in enumerate(zip(*samples.axis)):
                g = section_frame(mu, lam)
                dg = section_frame_derivative(mu, lam, dmu, dlam)
                direct = -(q * g.conj().T @ su2_of(vectors[k]) @ g + g.conj().T @ dg)
                formula = 0.5j * np.array([[c[k], j[k]], [np.conj(j[k]), -c[k]]])
                assert np.max(np.abs(direct - formula)) < 1e-10

    def test_transverse_magnitude_matches_reported(self):
        # |j| at q = 1 equals |J| = |psi (dmu - i sin mu dlam)| of the (C, J) decomposition
        pt = ShapePoint(1.3, 0.9)
        tang = (0.4, 1.1)
        psi = 0.2 + 0.1j
        samples = sample_at(pt, tang, smooth_field(), psi)
        mu, _, dmu, dlam = (x[0] for x in samples.axis)
        _, j = eigenframe_rate_samples(samples, 1.0)
        assert abs(j[0]) == pytest.approx(abs(psi * (dmu - 1j * math.sin(mu) * dlam)), abs=1e-12)


class TestGaugeAndPatchProperties:
    def test_gauge_rotation_invariance_q1(self):
        # A -> A + d(alpha), psi -> e^{i alpha} psi leaves the trace unchanged
        def a_of(s):
            return 0.12 + 0.05 * math.sin(s)

        def psi_of(s):
            return 0.1 * complex(math.cos(s), math.sin(2 * s))

        rng = np.random.default_rng(12)
        base = wilson_from_rates(a_of, psi_of, 1.0, 4096).trace
        for _ in range(10):
            coef = rng.normal(size=3) * 0.3

            def alpha(s):
                return coef[0] * math.sin(s) + coef[1] * (math.cos(2 * s) - 1) + coef[2] * math.sin(3 * s)

            def dalpha(s):
                return coef[0] * math.cos(s) - 2 * coef[1] * math.sin(2 * s) + 3 * coef[2] * math.cos(3 * s)

            rotated = wilson_from_rates(
                lambda s: a_of(s) + dalpha(s),
                lambda s: np.exp(1j * alpha(s)) * psi_of(s),
                1.0,
                4096,
            ).trace
            assert abs(rotated - base) < 1e-8

    def test_patch_independence_contractible_loop(self):
        # loops inside the overlap (no azimuth winding): identical traces
        from triholonomy.holonomy import HolonomyLoop, integrate_wilson

        s = np.linspace(0, 2 * math.pi, 1025)
        loop = ShapeLoop.from_samples(math.pi / 2 + 0.3 * np.cos(s), 0.4 * np.sin(s))
        for q in (0.5, 1.5, 2.5):
            t_north = integrate_wilson(
                HolonomyLoop(loop, BlochField.pinned(), ControlField.zero(), q, 2048)
            ).trace
            t_south = integrate_wilson(
                HolonomyLoop(
                    loop, BlochField.pinned(), ControlField.zero(), q, 2048, GaugePatch.SOUTH
                )
            ).trace
            assert t_north == pytest.approx(t_south, abs=1e-8)

    def test_loop_and_sampled_transport_share_one_pinned_frame(self):
        # integrate_wilson and wilson_from_samples (interaction_frame, the Hadamard calibration) give one matrix
        loop = HolonomyLoop(make_ellipse_loop(math.pi / 2, 0.2, 0.2), control=ControlField.constant(0.1),
                            charge=2.0, steps=4096)
        a, psi, _ = loop.sample(midpoint_grid(loop.steps)[0])
        assert np.array_equal(integrate_wilson(loop).matrix, wilson_from_samples(a, psi, 2.0).matrix)

    def test_exact_form_shift_of_decomposition(self):
        # c -> c + d(beta), j -> e^{i beta} j is a representative change of the
        # abelian potential that leaves the expanded trace unchanged
        from triholonomy.holonomy import trace_expansion_from_rates

        n = 8192
        s = (np.arange(n) + 0.5) * (2 * math.pi / n)
        c = 0.2 + 0.1 * np.sin(s)
        j = 0.05 * np.exp(1j * np.cos(s))
        beta = 0.4 * (np.cos(s) - 1.0) + 0.2 * np.sin(2 * s)
        dbeta = -0.4 * np.sin(s) + 0.4 * np.cos(2 * s)
        base = trace_expansion_from_rates(c, j, order=4).trace_estimate
        shifted = trace_expansion_from_rates(c + dbeta, j * np.exp(1j * beta), order=4).trace_estimate
        assert shifted == pytest.approx(base, abs=1e-8)


class TestCurvature:
    def test_pinned_monopole_curvature(self):
        f = curvature_vector(ShapePoint(math.pi / 2, 0.3), BlochField.pinned(), 0.0, (0.0, 0.0))
        assert np.allclose(f, [0.0, 0.0, 0.5], atol=1e-9)
        assert np.allclose(su2_of(f), np.diag([-0.25j, 0.25j]), atol=1e-9)

    @staticmethod
    def _plaquette(field, psi_field, th0, ph0, h, substeps=64):
        frac = (np.arange(substeps) + 0.5) / substeps
        legs = [  # (theta, phi, dtheta, dphi) along each side of the square, in order
            (th0 + frac * h, np.full(substeps, ph0), 1.0, 0.0),
            (np.full(substeps, th0 + h), ph0 + frac * h, 0.0, 1.0),
            (th0 + (1 - frac) * h, np.full(substeps, ph0 + h), -1.0, 0.0),
            (np.full(substeps, th0), ph0 + (1 - frac) * h, 0.0, -1.0),
        ]
        th, ph, dth, dph = (
            np.concatenate([np.broadcast_to(leg[i], substeps) for leg in legs]) for i in range(4)
        )
        samples = _samples_at(th, ph, dth, dph, field, psi_field(th, ph), GaugePatch.NORTH, "plaquette")
        return ordered_product(su2_exponentials(connection_vectors(samples).T, h / substeps))

    def test_plaquette_stokes_oracle(self):
        # -log(holonomy of a small square) agrees with curvature x area to
        # second order in the side length (difference O(h^3))
        field = smooth_field()

        def psi_field(th, ph):
            return 0.2 * (np.cos(th + ph) + 1j * np.sin(2 * ph - th))

        def dpsi(th, ph, h=1e-6):
            return (
                (psi_field(th + h, ph) - psi_field(th - h, ph)) / (2 * h),
                (psi_field(th, ph + h) - psi_field(th, ph - h)) / (2 * h),
            )

        th0, ph0 = 1.1, 0.7
        errs = []
        for h in (0.1, 0.05, 0.025):
            w = self._plaquette(field, psi_field, th0, ph0, h)
            thc, phc = th0 + h / 2, ph0 + h / 2
            f_center = su2_of(
                curvature_vector(ShapePoint(thc, phc), field, psi_field(thc, phc), dpsi(thc, phc))
            )
            errs.append(np.max(np.abs(-logm(w) - f_center * h**2)))
        # O(h^3): each halving shrinks the defect by ~8; require at least 6
        assert errs[0] / errs[1] > 6.0
        assert errs[1] / errs[2] > 6.0

    @pytest.mark.parametrize("colatitude", [0.0, 5e-6, math.pi])
    def test_stencil_past_a_pole_rejected(self, colatitude):
        with pytest.raises(ValidationError, match=r"^colatitude of the curvature's point must be at least 1e-05 from "
                                                  r"each pole, for the stencil, got "):
            curvature_vector(ShapePoint(colatitude, 0.3), BlochField.pinned(), 0.0, (0.0, 0.0))

    def test_curvature_spans_su2(self):
        # Ambrose-Singer style rank check: sampled curvature coefficient
        # vectors span a 3-dimensional real space.
        field = smooth_field()
        rng = np.random.default_rng(13)
        rows = []
        for _ in range(40):
            pt = ShapePoint(rng.uniform(0.4, 2.4), rng.uniform(0, 2 * math.pi))
            psi = 0.3 * complex(rng.normal(), rng.normal())
            dpsi = (0.3 * complex(rng.normal(), rng.normal()), 0.3 * complex(rng.normal(), rng.normal()))
            rows.append(curvature_vector(pt, field, psi, dpsi))
        rows = np.array(rows)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        smallest = np.linalg.svd(rows, compute_uv=False)[-1]
        assert smallest > 1e-6


class TestControlField:
    def test_periodicity_enforced(self):
        with pytest.raises(ValidationError):
            ControlField(lambda s: complex(s, 0.0))

    def test_winding_control_allowed_when_flagged(self):
        field = ControlField._from_arrays(lambda s: np.exp(0.25j * s), check_periodic=False)
        assert abs(field.at(2 * math.pi) - field.at(0.0)) > 1e-10  # the gap the default check refuses

    def test_unchecked_control_must_be_finite_at_both_ends(self):
        with pytest.raises(ValidationError, match="not finite"):
            ControlField._from_arrays(lambda s: np.where(s > 6, math.inf, 0.0) + 0j, check_periodic=False)

    @staticmethod
    def builtin_controls():
        wavy = ControlField.from_samples(0.1 * np.exp(1j * np.linspace(0, 2 * math.pi, 65)))
        shape = make_ellipse_loop(math.pi / 2, 0.2, 0.2, 64)
        return {
            "constant": ControlField.constant(0.3 + 0.1j),
            "zero": ControlField.zero(),
            "from_samples": wavy,
            "reversed": HolonomyLoop(shape, BlochField.pinned(), wavy, 2.0, 64).reversed().control,
            "steered": synth_hadamard_gate(100.0, n_samples=128, steps=256).loop.control,
        }

    def test_array_matches_scalar_for_builtin_controls(self):
        rng = np.random.default_rng(3)
        s = np.concatenate([np.linspace(0, 2 * math.pi, 97), rng.uniform(0, 2 * math.pi, 50)])
        for name, ctrl in self.builtin_controls().items():
            values = ctrl.at(s)
            assert isinstance(values, np.ndarray) and values.shape == s.shape, name
            assert np.array_equal(values, np.array([ctrl.at(x) for x in s])), name
            assert isinstance(ctrl.at(1.0), complex), name

    def test_scalar_callable_evaluated_once_per_sample(self):
        calls = []

        def psi(s):
            calls.append(s)
            return 0.05 * complex(math.cos(s), math.sin(s))

        ctrl = ControlField(psi)
        assert len(calls) == 2  # periodicity probes at s = 0 and 2 pi
        shape = make_ellipse_loop(math.pi / 2, 0.2, 0.2, 64)
        integrate_wilson(HolonomyLoop(shape, BlochField.pinned(), ctrl, 2.0, 300))
        assert len(calls) == 2 + 300

    def test_constant_and_samples(self):
        assert ControlField.constant(0.3 + 0.1j).at(1.7) == 0.3 + 0.1j
        samp = ControlField.from_samples(np.linspace(0, 1, 65) * 0j + 2.0)
        assert samp.at(0.5) == pytest.approx(2.0)
