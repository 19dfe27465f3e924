import math

import numpy as np
import pytest

from triholonomy.connection import BlochField, ControlField
from triholonomy.demonstrator import (
    PlatformParams,
    _PREP_PHASES,
    _fringe_record,
    adiabatic_window,
    gate_budget,
    leakage_estimate,
    ramsey_echo,
)
from triholonomy.errors import NumericalError, ValidationError
from triholonomy.gates import make_ellipse_loop, synth_phase_gate
from triholonomy.holonomy import HolonomyLoop, integrate_wilson
from triholonomy.shapespace import ShapeLoop


class TestPlatformParams:
    def test_defaults_are_consistent(self):
        p = PlatformParams()
        assert p.gap == pytest.approx(2 * math.pi * 10e6)
        assert p.splitting == pytest.approx(2 * math.pi * 10e3)

    def test_positivity(self):
        with pytest.raises(ValidationError):
            PlatformParams(t_loop=0.0)

    @pytest.mark.parametrize("n_rep", [math.nan, 2.5, True, 0, -3, 1.0], ids=["nan", "float", "bool", "zero",
                                                                          "negative", "whole-float"])
    def test_bad_n_rep_is_refused_by_name(self, n_rep):
        # a NaN count would pass on to gate_budget, which then blames the splitting
        with pytest.raises(ValidationError, match=r"n_rep must be an int of at least 1, got "):
            PlatformParams(n_rep=n_rep)

    @pytest.mark.parametrize("n_rep", [1, 7, np.int64(3), np.int32(1)])
    def test_int_n_rep_is_accepted(self, n_rep):
        assert PlatformParams(n_rep=n_rep).n_rep == n_rep
        assert gate_budget(PlatformParams(n_rep=n_rep)).p_decay > 0

    def test_infinite_modes_break_the_ordering(self):
        # inf - (inf + inf) / 2 is a NaN gap, which neither the window nor the leakage estimate can use;
        # the infinite energy is refused by name before the ordering is reached
        with pytest.raises(ValidationError, match="e_a must be positive and finite, got inf"):
            PlatformParams(e_a=math.inf, e_e1=math.inf, e_e2=math.inf)


class TestAdiabaticWindow:
    def test_default_point_passes_with_margins(self):
        report = adiabatic_window(PlatformParams())
        assert report.passed
        assert report.ratio_lower == pytest.approx(1e6 / (2 * math.pi * 1e4), rel=1e-12)
        assert report.ratio_lower == pytest.approx(15.915, rel=1e-3)
        assert report.ratio_upper == pytest.approx(62.832, rel=1e-3)

    def test_splitting_as_large_as_gap_fails(self):
        p = PlatformParams(e_e1=2 * math.pi * 1.0e6, e_e2=2 * math.pi * 11.0e6, e_a=2 * math.pi * 16.0e6)
        report = adiabatic_window(p)
        assert not report.passed

    def test_slow_loop_fails_lower_inequality(self):
        report = adiabatic_window(PlatformParams(t_loop=1.0))
        assert not report.passed
        assert report.ratio_lower < 1.0

    def test_mode_ordering_enforced(self):
        # the breathing mode below the doublet mean is refused when the platform is built
        with pytest.raises(ValidationError, match="mode ordering violated"):
            PlatformParams(e_a=2 * math.pi * 1.0e6)

    @pytest.mark.parametrize("ratio, passed", [(10.5, True), (9.5, False)])
    def test_margin_is_ten(self, ratio, passed):
        # "<<" is a factor of 10 on both ratios; here (1/T)/splitting sets the verdict
        splitting = PlatformParams().splitting
        report = adiabatic_window(PlatformParams(t_loop=1.0 / (ratio * splitting)))
        assert report.factor == 10.0 and report.ratio_upper > 10.0
        assert report.ratio_lower == pytest.approx(ratio, rel=1e-12) and report.passed is passed


class TestLeakage:
    def test_reference_value(self):
        # T_loop * gap = 2 pi x 10 => per-loop leakage ~ 2.53e-4
        p = PlatformParams()
        assert leakage_estimate(p) == pytest.approx(2.533e-4, rel=1e-3)

    def test_inverse_square_in_loop_time(self):
        p1 = PlatformParams(t_loop=1e-6)
        p2 = PlatformParams(t_loop=2e-6)
        assert leakage_estimate(p1) == pytest.approx(4.0 * leakage_estimate(p2), rel=1e-12)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"t_loop": 1e-300},  # (1/(T gap))**2 overflows
            {"t_loop": 5e-324},  # 1/(T gap) is already inf
            {"t_loop": 1e-300, "e_e1": 1e-300, "e_e2": 1e-300, "e_a": 1e-30},  # T gap underflows to 0
        ],
    )
    def test_overflow_raises(self, overrides):
        with pytest.raises(NumericalError, match="leakage estimate overflows"):
            leakage_estimate(PlatformParams(**overrides))

    def test_per_gate_union_bound(self):
        p1 = PlatformParams(n_rep=1)
        p10 = PlatformParams(n_rep=10)
        assert gate_budget(p10).p_leak == pytest.approx(10 * gate_budget(p1).p_leak, rel=1e-12)


class TestGateBudget:
    def test_reference_numbers(self):
        budget = gate_budget(PlatformParams())
        assert budget.p_decay == pytest.approx(1 - math.exp(-0.2), rel=1e-12)
        assert budget.p_decay == pytest.approx(0.1813, abs=1e-4)
        assert budget.phase_drift == pytest.approx(2 * math.pi * 1e4 * 1e-5, rel=1e-12)

    def test_infinite_lifetime(self):
        budget = gate_budget(PlatformParams(tau_r=1e12))
        assert budget.p_decay == pytest.approx(0.0, abs=1e-12)

    def test_zero_splitting_no_drift(self):
        p = PlatformParams(e_e1=2 * math.pi * 5e6, e_e2=2 * math.pi * 5e6)
        assert gate_budget(p).phase_drift == 0.0

    def test_monotonicity(self):
        decays = [gate_budget(PlatformParams(n_rep=n)).p_decay for n in (1, 5, 10, 20)]
        assert all(a < b for a, b in zip(decays, decays[1:]))
        leaks = [
            gate_budget(PlatformParams(e_a=2 * math.pi * (5e6 + gap))).p_leak
            for gap in (5e6, 10e6, 20e6)
        ]
        assert all(a > b for a, b in zip(leaks, leaks[1:]))

    def test_total_combination(self):
        budget = gate_budget(PlatformParams())
        expected = 1 - (1 - budget.p_decay) * (1 - budget.p_leak)
        assert budget.total_infidelity_estimate == pytest.approx(expected, rel=1e-12)


def point_loop(q=1.0):
    shape = ShapeLoop.from_samples(np.full(33, 1.0), np.full(33, 0.3))
    return HolonomyLoop(shape, BlochField.pinned(), ControlField.zero(), q, 64)


class TestRamseyEcho:
    def test_identity_loop_full_contrast(self):
        p = PlatformParams()
        for delta in (0.0, p.splitting, 10 * p.splitting):
            result = ramsey_echo(point_loop(), delta, p)
            assert result.contrast == pytest.approx(1.0, abs=1e-12)
            assert result.geometric_phase == pytest.approx(0.0, abs=1e-12)
            assert result.reconstructed_trace == pytest.approx(2.0, abs=1e-12)

    def test_quarter_phase_loop_trace(self):
        p = PlatformParams()
        loop = synth_phase_gate(400.0).loop
        result = ramsey_echo(loop, p.splitting, p)
        assert result.reconstructed_trace == pytest.approx(math.sqrt(2), abs=1e-3)

    def test_dynamical_phase_cancellation(self):
        p = PlatformParams()
        loop = synth_phase_gate(400.0).loop
        # includes the 0.3 rad-per-loop operating point and its doubling
        deltas = [0.1 * p.splitting, p.splitting, 0.3 / p.t_loop, 0.6 / p.t_loop]
        traces = [ramsey_echo(loop, d, p).reconstructed_trace for d in deltas]
        assert max(traces) - min(traces) < 1e-6
        assert traces[0] == pytest.approx(math.sqrt(2), abs=1e-3)

    def test_no_echo_control_exposes_drift(self):
        p = PlatformParams()
        loop = synth_phase_gate(400.0).loop
        base = ramsey_echo(loop, p.splitting, p, echo=False)
        shifted = ramsey_echo(loop, 2 * p.splitting, p, echo=False)
        applied = p.splitting * p.t_loop
        drift = abs(
            np.angle(shifted.fringe_amplitudes[0] / base.fringe_amplitudes[0])
        )
        assert drift >= applied
        assert math.isnan(base.reconstructed_trace)

    def test_orientation_reversal_negates_phase(self):
        # use a loop whose rotation angle is away from pi/2, where the
        # doubled-phase readout resolves the sign
        p = PlatformParams()
        shape = make_ellipse_loop(math.pi / 2, 0.05, 0.05)
        loop = HolonomyLoop(shape, BlochField.pinned(), ControlField.zero(), 100.0, 2048)
        fwd = ramsey_echo(loop, p.splitting, p)
        rev = ramsey_echo(loop.reversed(), p.splitting, p)
        assert abs(fwd.geometric_phase) > 0.1
        assert rev.geometric_phase == pytest.approx(-fwd.geometric_phase, abs=1e-9)

    @pytest.mark.parametrize("delta_e", [math.nan, math.inf, -math.inf])
    def test_splitting_must_be_finite(self, delta_e):
        # NaN was reported as an echo that failed to cancel the dynamical phase
        with pytest.raises(ValidationError, match="delta_e must be finite"):
            ramsey_echo(point_loop(), delta_e, PlatformParams())

    def test_scan_count_guard(self):
        with pytest.raises(ValidationError):
            ramsey_echo(point_loop(), 0.0, PlatformParams(), scan_count=2)

    def test_echo_cancels_only_when_w_commutes_with_sigma_z(self):
        # a transverse control makes W non-diagonal; a large one moves the trace
        # under the doubled splitting beyond 1e-6, and the re-check fails closed
        p = PlatformParams()
        gate = synth_phase_gate(400.0).loop

        def controlled(psi):
            return HolonomyLoop(gate.shape, gate.bloch, ControlField.constant(psi), 400.0, 2048)

        shift = r"^echo's shift of the reconstructed trace under a doubled splitting must be at most 1e-06, got "
        with pytest.raises(NumericalError, match=shift + r"8\.8\d+e-05$"):
            ramsey_echo(controlled(2e-4 + 1e-4j), p.splitting, p)
        result = ramsey_echo(controlled(2e-6 + 1e-6j), p.splitting, p)
        assert math.isfinite(result.reconstructed_trace)


def pulse(beta, axis_phase):
    """Rotation by beta about the equatorial axis at the given azimuth."""
    gen = math.cos(axis_phase) * np.array([[0, 1], [1, 0]], dtype=complex) + math.sin(
        axis_phase
    ) * np.array([[0, -1j], [1j, 0]], dtype=complex)
    return math.cos(beta / 2) * np.eye(2) - 1j * math.sin(beta / 2) * gen


def readout_block(loop, delta_e, params, echo):
    """Reference: the matrix between the two pi/2 pulses, from the forward and the reversed transport."""
    w = integrate_wilson(loop).matrix
    w_rev = integrate_wilson(loop.reversed()).matrix
    dyn = delta_e * params.t_loop
    d = np.diag([np.exp(-0.5j * dyn), np.exp(0.5j * dyn)])
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    return d @ w_rev @ swap @ d @ w if echo else d @ w @ d @ w


def fringe_by_matrices(block, scan, prep_phases):
    """Reference: one 2x2 product chain per preparation and scan phase."""
    pops = np.empty((len(prep_phases), scan.size))
    amps = []
    for p_idx, prep in enumerate(prep_phases):
        chi = block @ pulse(math.pi / 2, prep) @ np.array([1.0, 0.0], dtype=complex)
        for s_idx, phi_s in enumerate(scan):
            pops[p_idx, s_idx] = abs((pulse(math.pi / 2, phi_s) @ chi)[0]) ** 2
        amps.append(complex(2.0 / scan.size * np.sum(pops[p_idx] * np.exp(1j * scan))))
    return pops, np.array(amps)


class TestRamseyFringeOracle:
    @pytest.mark.parametrize("echo", [True, False])
    @pytest.mark.parametrize("scan_count", [3, 16])
    @pytest.mark.parametrize("prep_phases", [(0.0, math.pi / 2), (0.3, 1.9)])
    @pytest.mark.parametrize("controlled", [False, True])
    def test_matches_matrix_products(self, echo, scan_count, prep_phases, controlled):
        # the pi/2 gate loop (commuting-step transport) and a loop with control (SU(2) kernel);
        # ramsey_echo prepares about x and y, and its fringe record takes any pair of preparations
        p = PlatformParams()
        loop = synth_phase_gate(400.0).loop
        if controlled:
            loop = HolonomyLoop(loop.shape, loop.bloch, ControlField.constant(2e-6 + 1e-6j), 400.0, 2048)
        block = readout_block(loop, p.splitting, p, echo)
        scan = 2 * math.pi * np.arange(scan_count) / scan_count
        if prep_phases == _PREP_PHASES:
            result = ramsey_echo(loop, p.splitting, p, echo, scan_count)
            got_pops, got_amps = result.populations, result.fringe_amplitudes
        else:
            got_pops, got_amps = _fringe_record(block, prep_phases, scan)
        pops, amps = fringe_by_matrices(block, scan, prep_phases)
        assert got_pops.shape == pops.shape
        assert np.max(np.abs(got_pops - pops)) <= 1e-13
        assert np.max(np.abs(np.array(got_amps) - amps)) <= 1e-13
