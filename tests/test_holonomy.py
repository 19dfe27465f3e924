import math
import warnings

import numpy as np
import pytest

from triholonomy.connection import BlochField, ControlField
from triholonomy.errors import NumericalError, ValidationError
from triholonomy.holonomy import (
    HolonomyLoop,
    WilsonLine,
    dyson_trace,
    effective_angular_momentum,
    holonomy_trace,
    integrate_wilson,
    rotation_angle,
    transport_segment,
    wilson_from_rates,
)
from triholonomy.shapespace import ShapeLoop, TriangleConfig


def ellipse(theta0=math.pi / 2, a=0.2, b=0.2, n=1024, phi0=0.0):
    s = np.linspace(0, 2 * math.pi, n + 1)
    return ShapeLoop.from_samples(theta0 + a * np.cos(s), phi0 + (b / math.sin(theta0)) * np.sin(s))


def equator(n=4096):
    s = np.linspace(0, 2 * math.pi, n + 1)
    return ShapeLoop.from_samples(np.full_like(s, math.pi / 2), s)


def pinned_loop(shape, psi=None, q=1.0, steps=4096):
    ctrl = ControlField.zero() if psi is None else psi
    return HolonomyLoop(shape, BlochField.pinned(), ctrl, q, steps)


class TestWilsonLine:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            WilsonLine(np.array([[1.0, 0.1], [0.0, 1.0]]), 1.0)

    def test_rejects_non_special(self):
        phase = np.exp(0.3j)
        with pytest.raises(ValidationError):
            WilsonLine(phase * np.eye(2), 1.0)

    def test_rejects_nan_matrix(self):
        with pytest.raises(ValidationError):
            WilsonLine(np.full((2, 2), np.nan, dtype=complex), 1.0)

    def test_inverse_and_compose(self):
        w = WilsonLine(np.array([[0, -1], [1, 0]], dtype=complex), 1.0)
        assert np.allclose(w.then(w.inverse()).matrix, np.eye(2))


class TestNonFiniteControl:
    @staticmethod
    def nan_after_pi(s):
        # finite at the periodicity probes s = 0 and s = 2 pi, NaN on (pi, 2 pi)
        return math.nan if math.pi < s < 2 * math.pi else 0.05

    def test_integrate_wilson_raises(self):
        loop = pinned_loop(ellipse(), ControlField(self.nan_after_pi), steps=256)
        with pytest.raises(ValidationError, match="not finite"):
            integrate_wilson(loop)

    def test_dyson_trace_raises(self):
        loop = pinned_loop(ellipse(), ControlField(self.nan_after_pi), steps=256)
        with pytest.raises(ValidationError, match="not finite"):
            dyson_trace(loop)

    def test_rotation_angle_rejects_nan_trace(self):
        class NanTrace:
            trace = math.nan

        with pytest.raises(NumericalError):
            rotation_angle(NanTrace())


class TestIntegrateWilson:
    def test_point_loop_identity(self):
        loop = pinned_loop(ShapeLoop.from_samples(np.full(33, 1.0), np.full(33, 0.2)))
        assert np.allclose(integrate_wilson(loop).matrix, np.eye(2), atol=1e-14)

    def test_equator_monopole_holonomy(self):
        # unit-weight transport around the equator: |Tr W| vanishes
        loop = pinned_loop(equator(), q=1.0, steps=4096)
        w = integrate_wilson(loop)
        assert abs(w.trace) < 1e-6
        # diagonal phases are a half-turn about z (sign is the artifact convention)
        assert abs(abs(w.matrix[0, 0]) - 1.0) < 1e-10
        assert w.matrix[0, 0] == pytest.approx(1j, abs=1e-6)

    def test_quarter_rotation_ellipse(self):
        # enclosed angle pi/q at q = 8: fidelity to the quarter-phase target
        from triholonomy.gates import PHASE_GATE_TARGET, gate_fidelity

        q = 8.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shape = ellipse(a=1 / math.sqrt(q), b=1 / math.sqrt(q)).reversed()
        w = integrate_wilson(pinned_loop(shape, q=q))
        assert gate_fidelity(PHASE_GATE_TARGET, w.matrix) > 1 - 1e-3

    def test_unitarity_and_determinant(self):
        loop = pinned_loop(ellipse(), ControlField.constant(0.1 + 0.05j), q=2.5)
        m = integrate_wilson(loop).matrix
        assert np.linalg.norm(m.conj().T @ m - np.eye(2)) < 1e-10
        assert abs(np.linalg.det(m) - 1.0) < 1e-10

    def test_composition_of_segments(self):
        loop = pinned_loop(ellipse(), ControlField(lambda s: 0.08 * np.exp(1j * s)), q=1.5, steps=8192)
        w = integrate_wilson(loop).matrix
        first = transport_segment(loop, 0.0, math.pi, 4096)
        second = transport_segment(loop, math.pi, 2 * math.pi, 8192)
        assert np.max(np.abs(second @ first - w)) < 1e-8

    def test_inversion_is_exact(self):
        loop = pinned_loop(ellipse(), ControlField(lambda s: 0.08 * np.exp(1j * s)), q=1.5)
        w = integrate_wilson(loop).matrix
        w_rev = integrate_wilson(loop.reversed()).matrix
        assert np.max(np.abs(w_rev - np.linalg.inv(w))) < 1e-12

    def test_reparametrisation_invariance(self):
        n = 1024
        s = np.linspace(0, 2 * math.pi, n + 1)
        base = ellipse(n=n)
        sigma = s + 0.3 * np.sin(s)
        resampled = ShapeLoop.from_samples(
            np.interp(sigma, s, base.colatitudes), np.interp(sigma, s, base.azimuths)
        )
        t_base = holonomy_trace(pinned_loop(base, q=1.5, steps=4096))
        t_resampled = holonomy_trace(pinned_loop(resampled, q=1.5, steps=4096))
        assert abs(t_base - t_resampled) < 1e-6

    def test_second_order_convergence(self):
        loop = pinned_loop(ellipse(), ControlField(lambda s: 0.08 * np.exp(1j * s)), q=1.5)
        mats = [integrate_wilson(loop.with_steps(n)).matrix for n in (1024, 2048, 4096)]
        e_coarse = np.linalg.norm(mats[0] - mats[1])
        e_fine = np.linalg.norm(mats[1] - mats[2])
        assert e_coarse / e_fine >= 3.5

    def test_area_law_for_shrinking_loops(self):
        # Theta - (q/2) * enclosed angle vanishes quadratically in the angle
        from triholonomy.shapespace import solid_angle

        q = 2.0
        angles, defects = [], []
        for a in (0.3, 0.2, 0.1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                shape = ellipse(a=a, b=a, n=2048)
            omega = solid_angle(shape)
            theta = rotation_angle(integrate_wilson(pinned_loop(shape, q=q, steps=8192)))
            angles.append(omega)
            defects.append(abs(theta - 0.5 * q * omega))
        slope = np.polyfit(np.log(angles), np.log(defects), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_pole_crossing_rejected(self):
        s = np.linspace(0, 2 * math.pi, 65)
        shape = ShapeLoop.from_samples(np.full_like(s, math.pi - 1e-10), s)
        with pytest.raises(NumericalError):
            integrate_wilson(pinned_loop(shape))


class TestHolonomyTrace:
    def test_point_loop(self):
        loop = pinned_loop(ShapeLoop.from_samples(np.full(33, 1.0), np.full(33, 0.2)))
        assert holonomy_trace(loop) == pytest.approx(2.0, abs=1e-14)

    def test_equator(self):
        assert abs(holonomy_trace(pinned_loop(equator(), q=1.0))) < 1e-6

    def test_gauge_rotated_data(self):
        base = wilson_from_rates(lambda s: 0.1, lambda s: 0.05, 1.0, 4096).trace
        rotated = wilson_from_rates(
            lambda s: 0.1 + 0.2 * math.cos(s),
            lambda s: 0.05 * np.exp(0.2j * math.sin(s)),
            1.0,
            4096,
        ).trace
        assert abs(base - rotated) < 1e-8


class TestDysonTrace:
    def test_zero_control_is_exact_abelian(self):
        loop = pinned_loop(ellipse(), q=2.0, steps=4096)
        exp = dyson_trace(loop, order=4)
        assert exp.corrections == (0.0, 0.0)
        assert exp.trace_estimate == pytest.approx(2 * math.cos(exp.abelian_angle), abs=1e-14)
        assert exp.trace_estimate == pytest.approx(holonomy_trace(loop), abs=1e-9)

    @pytest.mark.parametrize("order,expected_ratio", [(2, 16.0), (4, 64.0)])
    def test_error_order_against_direct_integrator(self, order, expected_ratio):
        # halving |psi| shrinks the defect by 2^4 (order 2) or 2^6 (order 4)
        shape = ellipse(n=1024)
        diffs = []
        for psi_abs in (0.1, 0.05):
            loop = pinned_loop(shape, ControlField.constant(psi_abs), q=2.0, steps=8192)
            direct = holonomy_trace(loop)
            estimate = dyson_trace(loop, order).trace_estimate
            diffs.append(abs(direct - estimate))
        assert diffs[0] / diffs[1] == pytest.approx(expected_ratio, rel=0.25)

    def test_reversed_loop_same_trace(self):
        loop = pinned_loop(ellipse(), ControlField.constant(0.05), q=2.0, steps=8192)
        fwd = dyson_trace(loop, 4).trace_estimate
        rev = dyson_trace(loop.reversed(), 4).trace_estimate
        assert abs(fwd - rev) < 1e-8

    def test_contraction_bound_enforced(self):
        loop = pinned_loop(ellipse(), ControlField.constant(0.5), q=4.0, steps=2048)
        with pytest.raises(NumericalError, match="I2"):
            dyson_trace(loop, 2)

    def test_moving_axis_expansion_is_sixth_order(self):
        # with a moving quantisation axis the transverse coupling scales with
        # the loop speed; the order-4 defect must fall ~2^6 per loop halving
        field = BlochField.from_angles(
            mu=lambda th, ph: 0.9 + 0.3 * math.sin(th) * math.cos(ph) + 0.1 * math.cos(2 * ph),
            lam=lambda th, ph: 0.4 * ph + 0.2 * math.sin(th + ph),
        )
        diffs = []
        for scale in (1.0, 0.5):
            s = np.linspace(0, 2 * math.pi, 2049)
            shape = ShapeLoop.from_samples(
                1.0 + scale * 0.2 * np.cos(s), 0.5 + scale * 0.25 * np.sin(s)
            )
            loop = HolonomyLoop(shape, field, ControlField.constant(0.05), 2.5, 8192)
            diffs.append(abs(holonomy_trace(loop) - dyson_trace(loop, 4).trace_estimate))
        assert diffs[0] / diffs[1] == pytest.approx(64.0, rel=0.25)


class TestRotationAngle:
    def test_identity(self):
        assert rotation_angle(WilsonLine(np.eye(2, dtype=complex), 1.0)) == 0.0

    def test_half_turn(self):
        w = WilsonLine(np.diag([-1j, 1j]), 1.0)
        assert rotation_angle(w) == pytest.approx(math.pi)

    def test_quarter_phase_target(self):
        from triholonomy.gates import PHASE_GATE_TARGET

        w = WilsonLine(PHASE_GATE_TARGET, 1.0)
        assert rotation_angle(w) == pytest.approx(math.pi / 2, abs=1e-10)


class TestEffectiveAngularMomentum:
    @staticmethod
    def _static_configs(masses, n=16):
        cfg = TriangleConfig.from_vertices(
            [[0, 0, 0], [1.0, 0, 0], [0.4, 0.8, 0]], masses
        )
        return [cfg] * n

    def test_static_triangle_zero(self):
        configs = self._static_configs([1.0, 2.0, 3.0])
        assert effective_angular_momentum(configs, 2.0, 1.0) == 0.0

    def test_mass_scaling_is_exact(self):
        configs_1 = self._static_configs([1.0, 2.0, 3.0])
        configs_2 = self._static_configs([2.0, 4.0, 6.0])
        trace = 2 * math.cos(0.3)
        l1 = effective_angular_momentum(configs_1, trace, 2.0)
        l2 = effective_angular_momentum(configs_2, trace, 2.0)
        assert l2 == pytest.approx(2.0 * l1, rel=1e-14)

    def test_zero_period_rejected(self):
        with pytest.raises(ValidationError):
            effective_angular_momentum(self._static_configs([1, 1, 1]), 2.0, 0.0)
