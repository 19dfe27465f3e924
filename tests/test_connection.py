import math

import numpy as np
import pytest
from scipy.linalg import logm

from triholonomy.connection import (
    BlochField,
    ControlField,
    GaugePatch,
    bloch_area_potential,
    bloch_axis,
    connection_vector,
    curvature_sample,
    curvature_vector,
    eigenframe_rates,
    guichardet_connection,
    section_frame,
    section_frame_derivative,
    vector_to_su2,
    wilczek_zee_sample,
)
from triholonomy.errors import NumericalError, ValidationError
from triholonomy.gates import make_ellipse_loop, synth_hadamard_gate
from triholonomy.holonomy import (
    HolonomyLoop,
    integrate_wilson,
    ordered_product,
    su2_exponentials,
    wilson_from_rates,
)
from triholonomy.shapespace import ShapeLoop, ShapePoint


def smooth_field():
    return BlochField.from_angles(
        mu=lambda th, ph: 0.8 + 0.25 * math.sin(th) * math.cos(ph) + 0.15 * math.cos(th + 2 * ph),
        lam=lambda th, ph: 0.5 * ph + 0.3 * math.sin(th - ph),
    )


class TestGuichardet:
    def test_equator_value_north(self):
        pt = ShapePoint(math.pi / 2, 0.0)
        assert guichardet_connection(pt, (0.0, 1.0)) == pytest.approx(0.5)

    def test_regular_at_own_pole(self):
        pt = ShapePoint(1e-7, 0.0)
        assert guichardet_connection(pt, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-13)

    def test_excluded_pole_raises(self):
        with pytest.raises(NumericalError):
            guichardet_connection(ShapePoint(math.pi, 0.0), (0.0, 1.0))
        with pytest.raises(NumericalError):
            guichardet_connection(ShapePoint(0.0, 0.0), (0.0, 1.0), GaugePatch.SOUTH)

    def test_equator_loop_integrals_and_transition(self):
        # north gives +pi, south -pi; the difference is one 2 pi monopole unit
        s = np.linspace(0, 2 * math.pi, 513)
        pts = [ShapePoint(math.pi / 2, si % (2 * math.pi)) for si in s[:-1]]
        ds = s[1] - s[0]
        north = sum(guichardet_connection(p, (0.0, 1.0)) for p in pts) * ds
        south = sum(guichardet_connection(p, (0.0, 1.0), GaugePatch.SOUTH) for p in pts) * ds
        assert north == pytest.approx(math.pi, abs=1e-12)
        assert south == pytest.approx(-math.pi, abs=1e-12)
        assert north - south == pytest.approx(2 * math.pi, abs=1e-12)


class TestBlochAxis:
    def test_pinned(self):
        n, dn = bloch_axis(BlochField.pinned(), ShapePoint(1.0, 2.0), (0.3, -0.4))
        assert np.allclose(n, [0, 0, 1])
        assert np.allclose(dn, 0.0)

    def test_radial_equator_rate(self):
        n, dn = bloch_axis(BlochField.radial(), ShapePoint(math.pi / 2, 0.7), (0.0, 1.0))
        assert np.linalg.norm(n - [math.cos(0.7), math.sin(0.7), 0.0]) < 1e-12
        assert np.linalg.norm(dn) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.dot(n, dn)) < 1e-14

    def test_finite_difference_oracle(self):
        # dn/ds along a parametrised path vs central differences of n(s)
        field = smooth_field()
        rng = np.random.default_rng(5)
        for _ in range(10):
            th0, ph0 = rng.uniform(0.5, 2.5), rng.uniform(0, 2 * math.pi)
            vth, vph = rng.normal(), rng.normal()

            def n_of(s):
                return field.axis(ShapePoint(th0 + vth * s, (ph0 + vph * s) % (2 * math.pi)))

            _, dn = bloch_axis(field, ShapePoint(th0, ph0), (vth, vph))
            h = 1e-5
            fd = (n_of(h) - n_of(-h)) / (2 * h)
            assert np.linalg.norm(dn - fd) < 1e-6

    def test_orthogonality_always(self):
        field = smooth_field()
        rng = np.random.default_rng(6)
        for _ in range(20):
            pt = ShapePoint(rng.uniform(0.3, 2.8), rng.uniform(0, 2 * math.pi))
            n, dn = bloch_axis(field, pt, (rng.normal(), rng.normal()))
            assert abs(np.dot(n, dn)) < 1e-10


class TestAreaPotential:
    def test_pinned_zero(self):
        assert bloch_area_potential(BlochField.pinned(), ShapePoint(1.0, 1.0), (1.0, 2.0)) == 0.0

    def test_radial_field_matches_guichardet(self):
        field = BlochField.radial()
        rng = np.random.default_rng(8)
        for _ in range(20):
            pt = ShapePoint(rng.uniform(0.2, 2.6), rng.uniform(0, 2 * math.pi))
            tang = (rng.normal(), rng.normal())
            assert bloch_area_potential(field, pt, tang) == pytest.approx(
                guichardet_connection(pt, tang), abs=1e-10
            )

    def test_stokes_area(self):
        # loop integral of omega ~ half the signed area swept by the axis image
        field = smooth_field()
        n_samp = 2048
        s = np.linspace(0, 2 * math.pi, n_samp + 1)
        radius = 0.05
        th = 1.2 + radius * np.cos(s)
        ph = 0.8 + radius * np.sin(s)
        ds = s[1] - s[0]
        total = 0.0
        images = []
        for k in range(n_samp):
            sm = s[k] + 0.5 * ds
            pt = ShapePoint(1.2 + radius * math.cos(sm), (0.8 + radius * math.sin(sm)) % (2 * math.pi))
            tang = (-radius * math.sin(sm), radius * math.cos(sm))
            total += bloch_area_potential(field, pt, tang) * ds
            images.append(field.axis(pt))
        images = np.array(images)
        center = images.mean(axis=0)
        center /= np.linalg.norm(center)
        # triangulate the swept cap against the mean direction
        swept = 0.0
        for k in range(n_samp):
            a = images[k] - center
            b = images[(k + 1) % n_samp] - center
            swept += 0.5 * np.dot(np.cross(a, b), center)
        assert total == pytest.approx(0.5 * swept, rel=0.01)

    def test_bloch_pole_guard(self):
        field = BlochField.from_angles(mu=lambda th, ph: math.pi - 1e-12, lam=lambda th, ph: ph)
        with pytest.raises(NumericalError):
            bloch_area_potential(field, ShapePoint(1.0, 1.0), (0.0, 1.0))


class TestWilczekZeeSample:
    def test_pinned_collapse(self):
        pt = ShapePoint(1.0, 0.4)
        tang = (0.2, 1.3)
        sample = wilczek_zee_sample(pt, tang, BlochField.pinned(), 0.0)
        a = guichardet_connection(pt, tang)
        assert sample.abelian == pytest.approx(a)
        assert sample.transverse == 0.0
        expected = a * np.array([[1, 0], [0, -1]], dtype=complex) / 2j
        assert np.allclose(sample.full, expected, atol=1e-15)

    def test_traceless_antihermitian(self):
        field = smooth_field()
        rng = np.random.default_rng(9)
        for _ in range(30):
            pt = ShapePoint(rng.uniform(0.3, 2.7), rng.uniform(0, 2 * math.pi))
            psi = complex(rng.normal(), rng.normal())
            m = wilczek_zee_sample(pt, (rng.normal(), rng.normal()), field, psi).full
            assert abs(np.trace(m)) < 1e-12
            assert np.max(np.abs(m + m.conj().T)) < 1e-12

    def test_pinned_reassembly_exact(self):
        pt = ShapePoint(0.9, 5.1)
        tang = (0.7, -0.2)
        psi = 0.3 - 0.4j
        sample = wilczek_zee_sample(pt, tang, BlochField.pinned(), psi)
        c, j = sample.abelian, sample.transverse
        reassembled = np.array([[c, j], [np.conj(j), -c]], dtype=complex) / 2j
        assert np.max(np.abs(reassembled - sample.full)) < 1e-10

    def test_analytic_has_transverse_part(self):
        sample = wilczek_zee_sample(
            ShapePoint(1.0, 0.5), (1.0, 0.5), smooth_field(), 0.0
        )
        assert abs(sample.full[0, 1]) > 1e-3  # geometric axis motion couples off-diagonally
        assert sample.transverse == 0.0  # control coefficient itself vanishes at psi = 0

    def test_eigenframe_identity(self):
        # The closed-form transport rates match the frame-rotated connection:
        #   (i/2) [[c, j], [j*, -c]] == -(q G^dag A_full G + G^dag dG/ds)
        field = smooth_field()
        rng = np.random.default_rng(10)
        for _ in range(10):
            th, ph = rng.uniform(0.5, 2.2), rng.uniform(0.1, 6.0)
            pt = ShapePoint(th, ph % (2 * math.pi))
            tang = (rng.normal(), rng.normal())
            psi = 0.4 * complex(rng.normal(), rng.normal())
            q = rng.choice([0.5, 1.0, 2.0, 3.5])
            a_full = vector_to_su2(connection_vector(pt, tang, field, psi))
            mu, lam = field.angles(pt)
            dmu, dlam = field.angle_rates(pt, tang)
            g = section_frame(mu, lam)
            dg = section_frame_derivative(mu, lam, dmu, dlam)
            direct = -(q * g.conj().T @ a_full @ g + g.conj().T @ dg)
            c, j = eigenframe_rates(pt, tang, field, psi, q)
            formula = 0.5j * np.array([[c, j], [np.conj(j), -c]])
            assert np.max(np.abs(direct - formula)) < 1e-10

    def test_transverse_magnitude_matches_reported(self):
        # |j| at q = 1 equals |J| of the reported decomposition
        field = smooth_field()
        pt = ShapePoint(1.3, 0.9)
        tang = (0.4, 1.1)
        psi = 0.2 + 0.1j
        sample = wilczek_zee_sample(pt, tang, field, psi)
        _, j = eigenframe_rates(pt, tang, field, psi, 1.0)
        assert abs(j) == pytest.approx(abs(sample.transverse), abs=1e-12)


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
        m = curvature_sample(ShapePoint(math.pi / 2, 0.3), BlochField.pinned(), 0.0, (0.0, 0.0))
        assert np.allclose(m, np.diag([-0.25j, 0.25j]), atol=1e-9)

    @staticmethod
    def _plaquette(field, psi_field, th0, ph0, h, substeps=64):
        mats = []
        for leg, (dth, dph) in enumerate([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]):
            for k in range(substeps):
                frac = (k + 0.5) / substeps
                if leg == 0:
                    th, ph = th0 + frac * h, ph0
                elif leg == 1:
                    th, ph = th0 + h, ph0 + frac * h
                elif leg == 2:
                    th, ph = th0 + (1 - frac) * h, ph0 + h
                else:
                    th, ph = th0, ph0 + (1 - frac) * h
                pt = ShapePoint(th, ph % (2 * math.pi))
                v = connection_vector(pt, (dth, dph), field, psi_field(th, ph))
                mats.append(su2_exponentials(v[None, :], h / substeps)[0])
        return ordered_product(np.array(mats))

    def test_plaquette_stokes_oracle(self):
        # -log(holonomy of a small square) agrees with curvature x area to
        # second order in the side length (difference O(h^3))
        field = smooth_field()

        def psi_field(th, ph):
            return 0.2 * complex(math.cos(th + ph), math.sin(2 * ph - th))

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
            f_center = curvature_sample(
                ShapePoint(thc, phc), field, psi_field(thc, phc), dpsi(thc, phc)
            )
            errs.append(np.max(np.abs(-logm(w) - f_center * h**2)))
        # O(h^3): each halving shrinks the defect by ~8; require at least 6
        assert errs[0] / errs[1] > 6.0
        assert errs[1] / errs[2] > 6.0

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
        field = ControlField(lambda s: np.exp(0.25j * s), check_periodic=False)
        assert field.periodic is False

    @staticmethod
    def builtin_controls():
        wavy = ControlField.from_samples(0.1 * np.exp(1j * np.linspace(0, 2 * math.pi, 65)))
        shape = make_ellipse_loop(math.pi / 2, 0.0, 0.2, 0.2, 64)
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
        shape = make_ellipse_loop(math.pi / 2, 0.0, 0.2, 0.2, 64)
        integrate_wilson(HolonomyLoop(shape, BlochField.pinned(), ctrl, 2.0, 300))
        assert len(calls) == 2 + 300

    def test_constant_and_samples(self):
        assert ControlField.constant(0.3 + 0.1j).at(1.7) == 0.3 + 0.1j
        samp = ControlField.from_samples(np.linspace(0, 1, 65) * 0j + 2.0)
        assert samp.at(0.5) == pytest.approx(2.0)
