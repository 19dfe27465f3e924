import math
import warnings

import numpy as np
import pytest

from triholonomy.connection import BlochField, ControlField, connection_vectors
from triholonomy import holonomy
from triholonomy.errors import NumericalError, ValidationError
from triholonomy.holonomy import (
    HolonomyLoop,
    WilsonLine,
    _half_trace_angle,
    _step_pairs,
    _transport,
    _wilson_line,
    dyson_trace,
    holonomy_trace,
    integrate_wilson,
    midpoint_grid,
    ordered_product,
    rotation_angle,
    su2_exponentials,
    trace_expansion_from_rates,
    wilson_from_rates,
    wilson_from_samples,
)
from triholonomy.shapespace import ShapeLoop, shape_angles


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
            WilsonLine(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_rejects_non_special(self):
        phase = np.exp(0.3j)
        with pytest.raises(ValidationError):
            WilsonLine(phase * np.eye(2))

    def test_rejects_nan_matrix(self):
        with pytest.raises(ValidationError):
            WilsonLine(np.full((2, 2), np.nan, dtype=complex))

    @pytest.mark.parametrize("matrix", [np.eye(3), np.eye(2)[None], np.ones(4)])
    def test_rejects_other_shapes(self, matrix):
        with pytest.raises(ValidationError, match=r"^Wilson line's shape must be \(2, 2\), got "):
            WilsonLine(matrix)

    def test_trace_is_real_within_the_checks(self):
        # eigenvalues within 1e-10 of the unit circle with a product within 1e-10 of 1 sum to a real number
        # to about 3e-10, so the trace needs no check of its own
        rng, passed = np.random.default_rng(7), 0
        for _ in range(400):
            q = rng.normal(size=4)
            a, b = complex(q[0], q[1]), complex(q[2], q[3])
            m = np.array([[a, b], [-b.conjugate(), a.conjugate()]]) / np.linalg.norm(q)
            m = m + 3e-11 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            try:
                trace = np.trace(WilsonLine(m).matrix)
            except ValidationError:  # beyond a check: no trace is read
                continue
            passed += 1
            assert abs(trace.imag) <= 1e-9
        assert passed >= 100

    def test_inverse_and_compose(self):
        w = WilsonLine(np.array([[0, -1], [1, 0]], dtype=complex))
        inverse = WilsonLine(w.matrix.conj().T)
        assert np.allclose(WilsonLine(inverse.matrix @ w.matrix).matrix, np.eye(2))


def matmul_tree(mats):
    """Reference product: the same pairwise tree as full 2x2 matrix products."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        paired = np.matmul(mats[1 : 2 * (n // 2) : 2], mats[0 : 2 * (n // 2) : 2])
        if n % 2:
            paired = np.concatenate([paired, mats[-1:]], axis=0)
        mats = paired
    return mats[0]


def random_su2(rng, n, scale=0.3):
    return su2_exponentials(rng.normal(size=(n, 3)), scale)


class TestOrderedProduct:
    @pytest.mark.parametrize("n", [1, 2, 7, 1023, 1024, 4096])
    def test_matches_matmul_tree(self, n):
        mats = random_su2(np.random.default_rng(n), n)
        assert np.max(np.abs(ordered_product(mats) - matmul_tree(mats))) <= 1e-12

    def test_result_keeps_su2_form(self):
        m = ordered_product(random_su2(np.random.default_rng(3), 8192))
        assert m[1, 1] == np.conj(m[0, 0]) and m[1, 0] == -np.conj(m[0, 1])

    def test_batch_equals_separate_calls_exactly(self):
        mats = random_su2(np.random.default_rng(5), 6 * 333).reshape(6, 333, 2, 2)
        batched = ordered_product(mats)
        assert batched.shape == (6, 2, 2)
        for b in range(6):
            assert np.array_equal(batched[b], ordered_product(mats[b]))

    def test_rejects_non_su2_factor(self):
        mats = random_su2(np.random.default_rng(7), 16)
        mats[5, 1, 1] += 1e-9
        with pytest.raises(ValidationError, match="SU\\(2\\) form"):
            ordered_product(mats)
        mats = random_su2(np.random.default_rng(7), 16)
        mats[9] = np.diag([np.exp(0.3j), np.exp(0.3j)])  # unitary, but not SU(2) form
        with pytest.raises(ValidationError, match="SU\\(2\\) form"):
            ordered_product(mats)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_rejects_nan_factor(self, entry):
        mats = random_su2(np.random.default_rng(11), 16)
        mats[(4, *entry)] = complex(math.nan, 0.0)
        with pytest.raises(ValidationError):
            ordered_product(mats)

    def test_rejects_empty_stack(self):
        with pytest.raises(ValidationError):
            ordered_product(np.zeros((0, 2, 2), dtype=complex))


def step_pairs_rows(vectors, factor):
    """Oracle: the step kernel as it read (N, 3) rows, before the component-first layout."""
    norms = np.linalg.norm(vectors, axis=-1)
    half = 0.5 * factor * norms
    cos = np.cos(half)
    scale = np.where(norms > 0.0, np.sin(half) / np.where(norms > 0.0, norms, 1.0), 0.5 * factor)
    kx, ky, kz = (scale * vectors[..., 0], scale * vectors[..., 1], scale * vectors[..., 2])
    return cos + 1j * kz, 1j * kx + ky


def magnitude_rows(rng, shape, lo=-300.0, hi=150.0):
    """Rows with log-uniform magnitudes 10**lo to 10**hi and random signs."""
    return 10.0 ** rng.uniform(lo, hi, size=shape) * rng.choice([-1.0, 1.0], size=shape)


class TestStepKernelOracle:
    """The component-first step kernel gives the bytes of the former (N, 3)-row kernel."""

    @staticmethod
    def assert_same_bytes(rows, factor=0.3):
        a, b = _step_pairs(*np.moveaxis(rows, -1, 0), factor)
        a_ref, b_ref = step_pairs_rows(rows, factor)
        assert a.shape == a_ref.shape and b.shape == b_ref.shape
        assert a.tobytes() == a_ref.tobytes() and b.tobytes() == b_ref.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 1023, 4096])
    def test_random_rows(self, n):
        self.assert_same_bytes(np.random.default_rng(n).normal(size=(n, 3)))

    @pytest.mark.parametrize("n", [1, 7, 1023])
    def test_zero_rows(self, n):
        self.assert_same_bytes(np.zeros((n, 3)))
        self.assert_same_bytes(-np.zeros((n, 3)))
        rows = np.random.default_rng(n).normal(size=(n, 3))
        rows[::3] = 0.0
        rows[1::3, 1] = -0.0  # as -Im(psi) of a real control
        self.assert_same_bytes(rows)

    def test_batch(self):
        self.assert_same_bytes(np.random.default_rng(6).normal(size=(6, 333, 3)))

    @pytest.mark.parametrize("factor", [0.3, 1e-3, 2.0])
    def test_magnitudes_1e_minus_300_to_1e150(self, factor):
        rng = np.random.default_rng(12)
        self.assert_same_bytes(magnitude_rows(rng, (1023, 3)), factor)
        self.assert_same_bytes(magnitude_rows(rng, (6, 333, 3)), factor)
        for lo in range(-300, 150, 50):  # each row within one decade band, so no component dominates
            self.assert_same_bytes(magnitude_rows(rng, (257, 3), lo, lo + 1), factor)


class TestFusedTransport:
    """The unchecked (a, b) kernel against the checked matrix-stack entry points."""

    @pytest.mark.parametrize("n", [1, 2, 7, 1023, 4096])
    def test_bit_identical_to_checked_product(self, n):
        v = np.random.default_rng(n).normal(size=(n, 3))
        fused = _transport(v.T, 0.3)
        assert fused.tobytes() == ordered_product(su2_exponentials(v, 0.3)).tobytes()

    def test_batch_bit_identical(self):
        v = np.random.default_rng(6).normal(size=(6, 333, 3))
        fused = _transport(np.moveaxis(v, -1, 0), 0.3)
        stacked = su2_exponentials(v.reshape(-1, 3), 0.3).reshape(6, 333, 2, 2)
        assert fused.shape == (6, 2, 2)
        assert fused.tobytes() == ordered_product(stacked).tobytes()
        for b in range(6):
            assert fused[b].tobytes() == _transport(v[b].T, 0.3).tobytes()

    def test_nan_sample_fails_closed(self):
        a = np.full(64, 0.1)
        a[17] = math.nan
        with pytest.raises(ValidationError):
            wilson_from_samples(a, np.zeros(64), 1.0)


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

        def segment(s0, s1, n_steps):
            s_mid, ds = midpoint_grid(n_steps, s0, s1)
            return _wilson_line(connection_vectors(loop.sample(s_mid)), loop.charge, ds).matrix

        first = segment(0.0, math.pi, 4096)
        second = segment(math.pi, 2 * math.pi, 8192)
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


class TestCommutingStepPath:
    """Zero-control pinned loops transport the summed vector; the SU(2) kernel is the oracle."""

    @staticmethod
    def kernel(loop):
        s_mid, ds = midpoint_grid(loop.steps)
        return _transport(connection_vectors(loop.sample(s_mid)), loop.charge * ds)

    @staticmethod
    def spy(monkeypatch):
        """Step counts of every _transport call integrate_wilson makes."""
        steps = []

        def counted(v, factor):
            steps.append(v[0].shape[-1])
            return _transport(v, factor)

        monkeypatch.setattr(holonomy, "_transport", counted)
        return steps

    @pytest.mark.parametrize("q, steps, a", [(1.0, 4096, 0.2), (8.0, 8192, 0.3), (100.0, 16384, 0.2)])
    def test_matches_su2_kernel(self, monkeypatch, q, steps, a):
        loop = HolonomyLoop(ellipse(a=a, b=a), BlochField.pinned(), ControlField.zero(), q, steps)
        seen = self.spy(monkeypatch)
        w = integrate_wilson(loop).matrix
        assert seen == [1]
        assert np.max(np.abs(w - self.kernel(loop))) <= 1e-13

    def test_one_nonzero_control_sample_takes_su2_path(self, monkeypatch):
        s_mid, _ = midpoint_grid(256)
        ctrl = ControlField(lambda s: 1e-3 if abs(s - s_mid[37]) < 1e-12 else 0.0)
        loop = HolonomyLoop(ellipse(), BlochField.pinned(), ctrl, 2.0, 256)
        assert np.count_nonzero(loop.sample(s_mid).psi) == 1
        seen = self.spy(monkeypatch)
        w = integrate_wilson(loop).matrix
        assert seen == [256]
        assert np.array_equal(w, self.kernel(loop))


class TestHolonomyTrace:
    def test_point_loop(self):
        loop = pinned_loop(ShapeLoop.from_samples(np.full(33, 1.0), np.full(33, 0.2)))
        assert holonomy_trace(loop) == pytest.approx(2.0, abs=1e-14)

    def test_equator(self):
        assert abs(holonomy_trace(pinned_loop(equator(), q=1.0))) < 1e-6

    def test_step_count_must_be_an_integer(self):
        # 100.5 steps used to run ds = 2 pi / 100.5 over 101 midpoints
        for steps in (100.5, True, 7):
            with pytest.raises(ValidationError, match=r"^steps must be an int in \[8, 67108864\], got "):
                pinned_loop(equator(), steps=steps)
        assert pinned_loop(equator(), steps=np.int64(100)).steps == 100

    def test_coupling_weight_must_be_positive(self):
        for q in (0.0, -1.0, math.nan):
            with pytest.raises(ValidationError, match="charge must be positive"):
                pinned_loop(equator(), q=q)

    def test_sampled_transport_weight_must_be_positive(self):
        # the loop checks its own weight; sampled data is checked on entry, before any transport
        for q in (0.0, -1.0, math.nan):
            with pytest.raises(ValidationError, match="charge must be positive"):
                wilson_from_samples(np.zeros(8), np.zeros(8), q)

    @pytest.mark.parametrize("abelian, control", [
        (np.zeros(0), np.zeros(0)), (np.zeros((2, 8)), np.zeros((2, 8))), (np.zeros(8), np.zeros(9)),
    ], ids=["empty", "2-d", "unequal"])
    def test_sampled_data_must_be_equal_1d_arrays(self, abelian, control):
        with pytest.raises(ValidationError, match="rate samples must be non-empty 1-d arrays of equal length"):
            wilson_from_samples(abelian, control, 1.0)

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

    def test_trace_zero_is_refused(self):
        # c = 1/2 accumulates eta = pi, where 2 cos(eta / 2) = 0 and the corrections divide by it
        zero = r"^abelian \|cos\(eta / 2\)\| must be at least 1e-12, off a trace zero, got 6\.1\d+e-17$"
        with pytest.raises(NumericalError, match=zero):
            trace_expansion_from_rates(np.full(64, 0.5), np.full(64, 0.01j), 4)

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
        assert rotation_angle(WilsonLine(np.eye(2, dtype=complex))) == 0.0

    def test_half_turn(self):
        w = WilsonLine(np.diag([-1j, 1j]))
        assert rotation_angle(w) == pytest.approx(math.pi)

    def test_quarter_phase_target(self):
        from triholonomy.gates import PHASE_GATE_TARGET

        w = WilsonLine(PHASE_GATE_TARGET)
        assert rotation_angle(w) == pytest.approx(math.pi / 2, abs=1e-10)


class TestEffectiveAngularMomentum:
    def test_static_triangle_zero(self):
        # a triangle that holds still stays at one shape point: its shape loop
        # transports to the identity, so L_eff = I Theta / P is exactly zero
        masses = np.array([1.0, 2.0, 3.0])
        verts = np.array([[0, 0], [1.0, 0], [0.4, 0.8]])
        r = verts - masses @ verts / masses.sum()
        theta, phi = shape_angles(*r.T[..., None], masses)
        loop = ShapeLoop.from_samples(np.full(17, theta[0]), np.full(17, phi[0]))
        w = integrate_wilson(pinned_loop(loop, steps=64))
        assert w.trace == 2.0
        assert masses @ (r**2).sum(-1) * rotation_angle(w) / 2.0 == 0.0


class TestHalfTraceAngle:
    @pytest.mark.parametrize("trace", [math.nan, 7.0])
    def test_bad_trace_rejected(self, trace):
        with pytest.raises(NumericalError, match=rf"^\|Tr W\| / 2 must be at most 1.0000000001, got {trace / 2}$"):
            _half_trace_angle(trace)
