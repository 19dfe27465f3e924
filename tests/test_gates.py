import importlib.util
import math
import os
import re
import sys
import warnings

import numpy as np
import pytest

from triholonomy import gates
from triholonomy.connection import BlochField, ControlField
from triholonomy.errors import NumericalError, ValidationError
from triholonomy.gates import (
    CANONICAL_CNOT,
    CANONICAL_HADAMARD,
    HADAMARD_ROTATION,
    PHASE_GATE_TARGET,
    compile_cnot,
    cs_controlled_phase,
    gate_fidelity,
    interaction_frame,
    make_ellipse_loop,
    synth_hadamard_gate,
    synth_phase_gate,
)
from triholonomy.holonomy import HolonomyLoop, integrate_wilson, rotation_angle
from triholonomy.linking import LinkData, cs_phase, hopf_pair
from triholonomy.shapespace import ShapeLoop, solid_angle
from triholonomy.trimer import precession_berry_phase

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
NAN2 = np.full((2, 2), np.nan)


def benchmark_gate_weights():
    """The coupling weights of the benchmark's gate grid (perfbench/workloads.py)."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.GATE_Q


class TestEllipseLoop:
    def test_zero_axes_point_loop(self):
        loop = make_ellipse_loop(1.0, 0.0, 0.0)
        assert solid_angle(loop) == 0.0

    def test_small_loop_area(self):
        loop = make_ellipse_loop(math.pi / 2, 0.1, 0.1)
        assert solid_angle(loop) == pytest.approx(math.pi * 0.01, rel=0.01)

    def test_orientation_swap_negates_exactly(self):
        ellipse = make_ellipse_loop(math.pi / 2, 0.12, 0.2)
        # based at azimuth 0.3, as phi0 = 0.3 built it bit for bit
        loop = ShapeLoop(ellipse.colatitudes, 0.3 + ellipse.azimuths)
        assert solid_angle(loop.reversed()) == -solid_angle(loop)

    def test_orientation_swap_negates_exactly_at_azimuth_zero(self):
        # np.sum's pairwise order read 0.07526211602293242 forward and -0.07526211602293248 reversed
        loop = make_ellipse_loop(math.pi / 2, 0.12, 0.2)
        assert solid_angle(loop.reversed()) == -solid_angle(loop)

    def test_orientation_swap_negates_exactly_on_random_loops(self):
        # the terms of the reversed loop are the forward terms negated, and fsum rounds their sum once
        rng = np.random.default_rng(40)
        for _ in range(300):
            theta0, a, b = rng.uniform(0.5, math.pi - 0.5), *rng.uniform(0.0, 0.3, size=2)
            loop = make_ellipse_loop(theta0, a, b, int(rng.integers(8, 2048)))
            assert solid_angle(loop.reversed()) == -solid_angle(loop), (theta0, a, b)

    def test_large_axis_warns(self):
        with pytest.warns(UserWarning, match="small-loop"):
            make_ellipse_loop(math.pi / 2, 0.4, 0.1)

    def test_pole_proximity_rejected(self):
        with pytest.raises(ValidationError):
            make_ellipse_loop(0.1, 0.2, 0.1)

    @pytest.mark.parametrize("a, b", [(1e-15, 0.1), (1e-150, 0.0)])
    def test_axis_lost_to_rounding_rejected(self, a, b):
        # theta0 + a cos s must keep a nonzero a to 1e-6 of it; phi = 0.0 + b' sin s keeps b to rounding
        with pytest.raises(ValidationError, match="semi-axis a is lost to rounding"):
            make_ellipse_loop(math.pi / 2, a, b)

    def test_resolved_tiny_axes_accepted(self):
        # the azimuth, based at 0, carries b exactly; a = 1e-8 keeps about 1e-8 relative
        loop = make_ellipse_loop(math.pi / 2, 1e-8, 1e-30)
        assert solid_angle(loop) == pytest.approx(math.pi * 1e-38, rel=1e-6)


class TestPhaseGate:
    @pytest.mark.parametrize("q", [math.inf, math.nan, 0.0, -1.0])
    def test_coupling_weight_must_be_positive_and_finite(self, q):
        # q = inf once gave a gate of 1 repetition that failed only when integrated
        with pytest.raises(ValidationError, match="coupling weight q must be positive and finite"):
            synth_phase_gate(q)

    def test_q100_single_loop(self):
        spec = synth_phase_gate(100.0)
        assert spec.repetitions == 1
        realised = spec.integrate()
        assert gate_fidelity(PHASE_GATE_TARGET, realised) > 1 - 1e-3

    def test_q4_explicit_repetitions(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = synth_phase_gate(4.0, n_rep=5)
        assert spec.repetitions == 5
        per_loop = solid_angle(spec.loop.shape)
        assert abs(per_loop) == pytest.approx(math.pi / 20, rel=0.01)
        realised = spec.integrate()
        # composed gate error (distance up to global phase via fidelity)
        assert 1 - gate_fidelity(PHASE_GATE_TARGET, realised) < 1e-2

    def test_auto_repetitions_keep_small_loops(self):
        spec = synth_phase_gate(4.0)
        assert spec.repetitions == math.ceil(1.0 / (4.0 * 0.09))
        a = math.sqrt(1.0 / (4.0 * spec.repetitions))
        assert a <= 0.3 + 1e-12

    def test_reversed_orientation_gives_inverse(self):
        spec = synth_phase_gate(100.0)
        w_rev = integrate_wilson(spec.loop.reversed()).matrix
        inverse_target = PHASE_GATE_TARGET.conj().T
        assert gate_fidelity(inverse_target, w_rev) > 1 - 1e-3

    def test_per_loop_angle_error_scales_quadratically(self):
        # per-loop angle defect vs per-loop enclosed angle under repetition
        # compensation: log-log slope within [1.7, 2.3]
        q = 4.0
        omegas, errors = [], []
        for n_rep in (2, 4, 8):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                spec = synth_phase_gate(q, n_rep=n_rep)
            w = integrate_wilson(spec.loop)
            target_angle = (math.pi / 2) / n_rep
            omegas.append(abs(solid_angle(spec.loop.shape)))
            errors.append(abs(rotation_angle(w) - target_angle))
        slope = np.polyfit(np.log(omegas), np.log(errors), 1)[0]
        assert 1.7 <= slope <= 2.3

    def test_rejects_bad_weight(self):
        with pytest.raises(ValidationError):
            synth_phase_gate(0.0)


class TestInteractionFrame:
    def test_zero_control_gives_zero_transverse(self):
        spec = synth_phase_gate(50.0)
        frame = interaction_frame(spec.loop)
        assert np.max(np.abs(frame.transverse)) == 0.0
        assert np.array_equal(frame.integrate_transverse().matrix, np.eye(2))

    def test_meridian_loop_has_no_diagonal_phase(self):
        # phi constant => abelian part vanishes and the frame transform is trivial
        s = np.linspace(0, 2 * math.pi, 1025)
        shape = ShapeLoop.from_samples(1.0 + 0.3 * np.cos(s), np.zeros_like(s))
        loop = HolonomyLoop(shape, BlochField.pinned(), ControlField.constant(0.07 + 0.02j), 2.0, 2048)
        frame = interaction_frame(loop)
        assert np.max(np.abs(frame.eta)) < 1e-14
        assert np.allclose(frame.transverse, 0.07 + 0.02j)

    def test_factorisation_reproduces_direct_holonomy(self):
        q = 40.0
        shape = make_ellipse_loop(math.pi / 2, 1 / math.sqrt(q), 1 / math.sqrt(q), 1024)
        ctrl = ControlField._from_arrays(
            lambda s: 0.004 * np.exp(1j * (0.5 * s - 2 * np.sin(s))), check_periodic=False
        )
        loop = HolonomyLoop(shape, BlochField.pinned(), ctrl, q, 16384)
        w = integrate_wilson(loop).matrix
        frame = interaction_frame(loop)
        u_z = np.diag([np.exp(0.5j * frame.eta_total), np.exp(-0.5j * frame.eta_total)])
        w_factored = u_z @ frame.integrate_transverse().matrix
        assert np.max(np.abs(w_factored - w)) < 1e-8

    def test_requires_pinned_axis(self):
        spec = synth_phase_gate(50.0)
        loop = HolonomyLoop(spec.loop.shape, BlochField.radial(), ControlField.zero(), 1.0, 1024)
        with pytest.raises(ValidationError):
            interaction_frame(loop)


class TestHadamardGate:
    def test_calibrated_rotation(self):
        spec = synth_hadamard_gate(100.0)
        v = interaction_frame(spec.loop).integrate_transverse().matrix
        assert gate_fidelity(HADAMARD_ROTATION, v) > 0.98
        assert np.linalg.norm(v - HADAMARD_ROTATION) < 5e-2
        # leading-order seed: |psi| = 1/(4q)
        assert spec.calibrated_control == pytest.approx(1.0 / 400.0, rel=1e-3)

    def test_double_traversal_is_half_turn(self):
        spec = synth_hadamard_gate(100.0)
        v = interaction_frame(spec.loop).integrate_transverse().matrix
        assert np.linalg.norm(v @ v - (-1j * SIGMA_Y)) < 1e-4

    def test_canonical_hadamard_identity(self):
        h_b = HADAMARD_ROTATION @ np.diag([1.0, -1.0])
        assert np.array_equal(h_b, CANONICAL_HADAMARD)

    def test_transverse_axis_alignment(self):
        # x- and z-rotation components stay below 10% of the y component
        spec = synth_hadamard_gate(64.0)
        v = interaction_frame(spec.loop).integrate_transverse().matrix
        # rotation axis components from the su(2) decomposition of V
        half = np.arccos(np.clip(np.trace(v).real / 2, -1, 1))
        gen = (v - np.cos(half) * np.eye(2)) / (-1j * np.sin(half))
        comp = np.array(
            [np.trace(gen @ p).real / 2 for p in (
                np.array([[0, 1], [1, 0]]), SIGMA_Y, np.diag([1, -1]))]
        )
        assert abs(comp[0]) < 0.1 * abs(comp[1])
        assert abs(comp[2]) < 0.1 * abs(comp[1])

    def test_residual_abelian_reported(self):
        spec = synth_hadamard_gate(100.0)
        r = spec.residual_abelian
        assert abs(abs(r[0, 0]) - 1.0) < 1e-12
        # enclosed angle pi/q makes the diagonal factor a quarter-phase unit
        assert np.angle(r[0, 0]) == pytest.approx(-math.pi / 4, abs=1e-3)

    def test_full_holonomy_factorises_through_residual(self):
        spec = synth_hadamard_gate(100.0, steps=16384)
        w = spec.integrate()
        v = interaction_frame(spec.loop).integrate_transverse().matrix
        assert np.max(np.abs(spec.residual_abelian @ v - w)) < 1e-7

    @pytest.mark.parametrize("steps", [4096, 8192])
    @pytest.mark.parametrize("q", benchmark_gate_weights())
    def test_transverse_is_the_interaction_frame_transport(self, q, steps):
        # the calibration's own V(2 pi) at |psi|_cal, bit for bit the re-integrated one
        spec = synth_hadamard_gate(q, steps=steps)
        v = interaction_frame(spec.loop).integrate_transverse()
        assert spec.transverse.matrix.tobytes() == v.matrix.tobytes()

    def test_phase_gate_has_no_transverse_line(self):
        assert synth_phase_gate(50.0).transverse is None

    @pytest.mark.parametrize("q", benchmark_gate_weights())
    def test_calibration_is_closed_form(self, q):
        # steered step factors commute, so the rotation angle is 2 pi q |psi| exactly
        for steps in (4096, 8192, 16384):
            spec = synth_hadamard_gate(q, steps=steps)
            assert spec.calibrated_control == 1.0 / (4.0 * q)
            assert abs(rotation_angle(spec.transverse) - math.pi / 2) <= 1e-12

    @pytest.mark.parametrize("angle", [math.pi / 2 + 2e-6, math.nan], ids=["missed", "nan"])
    def test_missed_rotation_angle_raises(self, monkeypatch, angle):
        monkeypatch.setattr(gates, "rotation_angle", lambda line: angle)
        miss = re.escape(f"miss of pi/2 at |psi| = 1/(4 q) must be at most 1e-06, got {abs(angle - math.pi / 2)!r}")
        with pytest.raises(NumericalError, match=miss):
            synth_hadamard_gate(100.0)


class TestTwoQubitGates:
    def test_cz_at_matched_level(self):
        gate = cs_controlled_phase(3.0, 36)
        assert np.allclose(gate.matrix, np.diag([1, 1, 1, -1]), atol=1e-12)
        assert gate.phase == pytest.approx(math.pi, abs=1e-12)

    def test_unlinked_cycles_do_nothing(self):
        phases = [cs_phase([qa, qb], LinkData.pair(0), 36) for qa in (0.0, 3.0) for qb in (0.0, 3.0)]
        assert phases == [0.0] * 4

    def test_double_linking_with_doubled_level(self):
        assert cs_phase([3.0, 3.0], LinkData.pair(2), 72) == pytest.approx(math.pi, abs=1e-12)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValidationError):
            cs_controlled_phase(3.0, 0)

    def test_cnot_exact_matrix_path(self):
        gate = compile_cnot(3.0, 36)
        assert np.max(np.abs(gate.matrix - CANONICAL_CNOT)) < 1e-12

    def test_cnot_control_zero_block_is_identity(self):
        gate = compile_cnot(3.0, 36)
        assert np.max(np.abs(gate.matrix[:2, :2] - np.eye(2))) < 1e-12
        assert np.max(np.abs(gate.matrix[:2, 2:])) < 1e-12

    def test_cnot_integrated_holonomy_path(self):
        spec = synth_hadamard_gate(100.0)
        v = interaction_frame(spec.loop).integrate_transverse().matrix
        gate = compile_cnot(100.0, 4 * 100 * 100, hadamard=v)
        assert gate_fidelity(CANONICAL_CNOT, gate.matrix) > 0.99

    def test_mismatched_level_rejected(self):
        with pytest.raises(ValidationError, match="not pi"):
            compile_cnot(3.0, 35)


class TestGateSpec:
    @staticmethod
    def spec(target=PHASE_GATE_TARGET, residual=np.eye(2)):
        loop = HolonomyLoop(make_ellipse_loop(math.pi / 2, 0.1, 0.1, 64))
        return gates.GateSpec(target=target, loop=loop, repetitions=1, residual_abelian=residual)

    @pytest.mark.parametrize("target", [np.array([[1.0, 0.1], [0.0, 1.0]]), 2 * np.eye(2), NAN2])
    def test_target_must_be_unitary(self, target):
        with pytest.raises(ValidationError, match=r"^gate target's \|U\^H U - I\| must be at most 1e-12, got "):
            self.spec(target=target)

    @pytest.mark.parametrize("residual", [HADAMARD_ROTATION, np.diag([1.0, 2.0]), NAN2])
    def test_residual_must_be_a_diagonal_unitary(self, residual):
        with pytest.raises(ValidationError, match="residual abelian factor must be a diagonal unitary"):
            self.spec(residual=residual)


class TestGateFidelity:
    def test_identical(self):
        u = PHASE_GATE_TARGET
        assert gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_pauli_pair(self):
        u = CANONICAL_HADAMARD
        assert gate_fidelity(u, u @ np.diag([1, -1])) == pytest.approx(0.0, abs=1e-15)

    def test_small_rotation_closed_form(self):
        eps = 0.137
        u = CANONICAL_HADAMARD
        v = u @ np.diag([np.exp(-0.5j * eps), np.exp(0.5j * eps)])
        assert gate_fidelity(u, v) == pytest.approx(math.cos(eps / 2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            gate_fidelity(np.eye(2), np.eye(4))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: compile_cnot(2.0, 16, hadamard=NAN2), ValidationError, "unitary"),
        (lambda: gate_fidelity(NAN2, NAN2), ValidationError, "unitary"),
        (lambda: precession_berry_phase(1.0, 0.15, 3.0, phi13=math.nan), ValidationError, "phi13 must be within"),
        (lambda: precession_berry_phase(math.nan, 0.15, 3.0), ValidationError, "d must be positive and finite"),
        (lambda: make_ellipse_loop(math.pi / 2, math.nan, 0.2), ValidationError, "non-negative"),
        (lambda: hopf_pair(math.nan, 1.0), ValidationError, "radius1 must be positive and finite"),
    ],
    ids=["compile_cnot", "gate_fidelity", "precession_berry_phase", "precession_berry_phase-nan-d",
         "make_ellipse_loop-nan-a", "hopf_pair-nan-radius"],
)
def test_nan_fails_closed(call, error, message):
    with pytest.raises(error, match=message):
        call()
