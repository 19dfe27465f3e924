"""The public API refuses what the CLI refuses, and each bound is declared once.

``test_walk`` calls every callable that ``triholonomy`` re-exports from a table of valid arguments
(``WALK``) and sets each float argument in turn to NaN, +inf, -inf, 0 and -1, with warnings as errors.
A case passes on a ValidationError or NumericalError whose message names the argument (or the quantity
``NAMES`` lists for it), or on finite outputs.  ``test_walk_non_numeric`` sets each float argument in turn
to "1.0", None and [1.0], and ``test_walk_ints`` each int argument to NaN, +inf, -inf, 0, -1, 2.5, True and
2**63; a case of either passes only on such a refusal.  The cases the physics
allows to return otherwise are ``ALLOWED``, each with its reason.  ``PROBES`` are the inputs the library
once accepted although the CLI refused them: each failed late, for the wrong reason, or returned a number.
``SCALE_PROBES`` are trimer drives and masses that pass every field bound but whose products overflow.
"""

import dataclasses
import enum
import inspect
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import triholonomy
from triholonomy import (
    BondDrive,
    HolonomyLoop,
    LinkData,
    PlatformParams,
    ShapePoint,
    adiabatic_window,
    cs_phase,
    hopf_pair,
    integrate_wilson,
    leakage_estimate,
    make_ellipse_loop,
    phase_sweep,
    precession_berry_phase,
    ramsey_echo,
    reconstruct_rotation,
    synth_hadamard_gate,
    synth_phase_gate,
    wilson_from_rates,
)
from triholonomy import cli, demonstrator, errors, gates, holonomy, linking, trimer
from triholonomy.connection import BlochField
from triholonomy.errors import NumericalError, ValidationError

HOSTILE = [math.nan, math.inf, -math.inf, 0.0, -1.0]
HOSTILE_INTS = [math.nan, math.inf, -math.inf, 0, -1, 2.5, True, 2**63]
NON_NUMERIC = ["1.0", None, [1.0]]  # each once ended in a bare TypeError or ValueError where a float belongs
DRIVE = dict(d12=1.1, a12=0.2, omega12=1.0, d=1.0, a=0.15, omega=3.0)
MASSES = [2.1, 2.1, 4.7]


def _loop():
    return synth_phase_gate(100.0, n_samples=64, steps=256).loop


def _pi2_loop():
    return synth_phase_gate(100.0).loop


def _trajectory():
    return reconstruct_rotation(BondDrive(**DRIVE), MASSES, 3 * 2 * math.pi, 2 * math.pi / 256)


# Re-exported callable -> (valid arguments, as a function that builds them; the float arguments walked;
# the int arguments walked).  "name[0]" walks the first entry of a list argument.
WALK = {
    "BondDrive": (lambda: dict(DRIVE, phi13=0.3, phi23=-0.3), [*DRIVE, "phi13", "phi23"], []),
    "ErrorBudget": (lambda: dict(p_leak=0.01, p_decay=0.02, phase_drift=0.1, total_infidelity_estimate=0.03),
                    ["p_leak", "p_decay", "phase_drift", "total_infidelity_estimate"], []),
    "GateSpec": (lambda: dict(target=gates.PHASE_GATE_TARGET, loop=_loop(), repetitions=4,
                              residual_abelian=np.eye(2)), [], ["repetitions"]),  # its floats are computed values
    "HolonomyLoop": (lambda: dict(shape=make_ellipse_loop(math.pi / 2, 0.1, 0.1, 64), charge=2.0, steps=256),
                     ["charge"], ["steps"]),
    "PlatformParams": (dict, ["e_a", "e_e1", "e_e2", "t_loop", "tau_r"], ["n_rep"]),
    "ShapePoint": (lambda: dict(colatitude=1.0, azimuth=0.5), ["colatitude", "azimuth"], []),
    "TrimerTrajectory": (lambda: dataclasses.asdict(_trajectory()), [], ["period_steps"]),
    "bond_lengths": (lambda: dict(t=0.5, drive=BondDrive(**DRIVE)), ["t"], []),
    "compile_cnot": (lambda: dict(q=1.0, k=4), ["q"], ["k"]),
    "cs_controlled_phase": (lambda: dict(q=1.0, k=4), ["q"], ["k"]),
    "cs_phase": (lambda: dict(charges=[1.0, 1.0], link=LinkData.pair(1), k=4), ["charges[0]"], ["k"]),
    "curvature_vector": (lambda: dict(point=ShapePoint(1.2, 0.8), field=BlochField.pinned(), psi=0.1,
                                      dpsi=(0.0, 0.0)), ["psi"], []),
    "dyson_trace": (lambda: dict(loop=_loop(), order=2), [], ["order"]),
    "effective_momentum_series": (lambda: dict(traj=_trajectory(), period=2 * math.pi), ["period"], []),
    "hopf_pair": (lambda: dict(radius1=1.0, radius2=1.0, n_segments=64), ["radius1", "radius2"], ["n_segments"]),
    "make_ellipse_loop": (lambda: dict(theta0=math.pi / 2, a=0.1, b=0.1, n_samples=64), ["theta0", "a", "b"],
                          ["n_samples"]),
    "phase_sweep": (lambda: dict(drive_template=BondDrive(**DRIVE), masses=list(MASSES), phi_values=[0.5]),
                    ["masses[0]", "phi_values[0]"], ["periods"]),
    "precession_berry_phase": (lambda: dict(d=1.0, a=0.15, omega=3.0, phi13=math.pi / 4, phi23=-math.pi / 4),
                               ["d", "a", "omega", "phi13", "phi23"], []),
    "ramsey_echo": (lambda: dict(loop=_loop(), delta_e=2 * math.pi * 1e4, params=PlatformParams()), ["delta_e"],
                    ["scan_count"]),
    "reconstruct_rotation": (lambda: dict(drive=BondDrive(**DRIVE), masses=list(MASSES), t_end=2 * math.pi,
                                          dt=2 * math.pi / 512), ["masses[0]", "t_end", "dt"], []),
    "synth_hadamard_gate": (lambda: dict(q=100.0, n_samples=64, steps=256), ["q"], ["n_samples", "steps"]),
    "synth_phase_gate": (lambda: dict(q=100.0, n_samples=64, steps=256), ["q"], ["n_rep", "n_samples", "steps"]),
    "trace_expansion_from_rates": (lambda: dict(c=np.full(64, 0.1), j=np.full(64, 0.01j), order=2), [], ["order"]),
    "wilson_from_rates": (lambda: dict(abelian=lambda s: 0.1, control=lambda s: 0.01, charge=1.0, n_steps=64),
                          ["charge"], ["n_steps"]),
}

# Re-exported callables with no float or int argument: loops, curves, matrices, arrays, callables or enums.
# adiabatic_window, gate_budget and leakage_estimate take a PlatformParams, and integrate_wilson and
# holonomy_trace a HolonomyLoop, which the walk refuses first.
NOT_WALKED = {
    "BlochField", "ControlField", "GaugePatch", "LinkData", "NumericalError", "ShapeLoop", "SpaceCurve",
    "ValidationError", "WilsonLine", "adiabatic_window", "gate_budget", "gate_fidelity", "gauss_linking",
    "holonomy_trace", "integrate_wilson", "interaction_frame", "leakage_estimate", "rotation_angle",
    "solid_angle",
}

# Result records: the library builds them from the inputs it checked, and their fields hold the computed
# values as given (WindowReport's ratio_lower is inf at zero splitting, and RamseyResult's phases are NaN
# without the echo), so they check nothing.
RECORDS = {"RamseyResult", "TraceExpansion", "TwoQubitGate", "WindowReport"}

# (callable, argument) -> words, one of which a refusal must name, where the message names the quantity.
NAMES = {
    ("ShapePoint", "colatitude"): ("colatitude",),
    ("curvature_vector", "psi"): ("control",),
    ("effective_momentum_series", "period"): ("period",),
    ("make_ellipse_loop", "theta0"): ("colatitude",),
    ("phase_sweep", "phi_values[0]"): ("phase grid",),
    ("precession_berry_phase", "phi13"): ("phi13", "circular"),  # a finite phase off pi/4 is no circle
    ("precession_berry_phase", "phi23"): ("phi23", "circular"),
}

# (callable, argument, value) -> why the physics lets the call return although the value is hostile; a
# NON_NUMERIC value is keyed by its repr.
ALLOWED = {
    ("PlatformParams", "tau_r", math.inf): "an infinite Rydberg lifetime is no decay: p_decay is 0",
    ("bond_lengths", "t", math.nan): "the drive formula is elementwise, as numpy is: a NaN time gives NaN bonds",
    ("bond_lengths", "t", math.inf): "cos has no value at an infinite time, so the bonds there are NaN",
    ("bond_lengths", "t", -math.inf): "cos has no value at an infinite time, so the bonds there are NaN",
    ("cs_phase", "charges[0]", 0.0): "charge 0 is a triangle in |0>, which does not couple (cs_controlled_phase)",
    ("PlatformParams", "n_rep", 2**63): "n_rep has no upper end, and the budget of that many loops is finite",
    ("bond_lengths", "t", "[1.0]"): "t is an array of times, and [1.0] holds one",
    ("bond_lengths", "t", "'1.0'"): "numpy reads the string '1.0' as the time 1.0, elementwise",
    ("bond_lengths", "t", "None"): "numpy reads None as a NaN time, whose bonds are NaN, elementwise",
    ("reconstruct_rotation", "dt", "None"): "dt=None is the default step, 1/512 of the fastest period",
    **{("phase_sweep", "periods", value): "periods reaches no output: the rate of one period is the mean over any"
       for value in HOSTILE_INTS},
}


def _with(args: dict, path: str, value) -> dict:
    name, _, index = path.partition("[")
    if index:
        args[name][int(index[:-1])] = value
    else:
        args[name] = value
    return args


def _finite(out) -> bool:
    """Every number that ``out`` holds is finite: in arrays, tuples, lists and dataclass fields."""
    if isinstance(out, (bool, str, enum.Enum)) or out is None:
        return True
    if isinstance(out, (int, float, complex, np.number)):
        return bool(np.isfinite(out))
    if isinstance(out, np.ndarray):
        return out.dtype.kind not in "fc" or bool(np.all(np.isfinite(out)))
    if isinstance(out, (tuple, list)):
        return all(_finite(x) for x in out)
    if dataclasses.is_dataclass(out):
        return all(_finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    return True  # fields, controls and other callables hold no numbers of their own


def _call(name: str, path: str, value):
    """(result or None, exception or None) of the walked call, with every warning an error."""
    build = WALK[name][0]
    args = _with(build(), path, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return getattr(triholonomy, name)(**args), None
        except (ValidationError, NumericalError) as exc:
            return None, exc


def _refused_by_name(name: str, path: str, value, exc: Exception) -> None:
    words = NAMES.get((name, path), (path.partition("[")[0],))
    assert any(re.search(rf"(?<![\w]){re.escape(w)}(?![\w])", str(exc)) for w in words), str(exc)
    assert (name, path, value) not in ALLOWED, "an allowed case is refused"


CASES = [(name, path, value) for name, (_, paths, _) in WALK.items() for path in paths for value in HOSTILE]
NON_NUMERIC_CASES = [(name, path, value) for name, (_, paths, _) in WALK.items() for path in paths
                     for value in NON_NUMERIC]
INT_CASES = [(name, path, value) for name, (*_, paths) in WALK.items() for path in paths for value in HOSTILE_INTS]


@pytest.mark.parametrize("name, path, value", CASES, ids=[f"{n}-{p}-{v:g}" for n, p, v in CASES])
def test_walk(name, path, value):
    out, exc = _call(name, path, value)
    if exc is not None:
        _refused_by_name(name, path, value, exc)
    elif (name, path, value) not in ALLOWED:
        assert math.isfinite(value) and _finite(out), f"{name}({path}={value}) returned a non-finite output"


@pytest.mark.parametrize("name, path, value", NON_NUMERIC_CASES,
                         ids=[f"{n}-{p}-{v!r}" for n, p, v in NON_NUMERIC_CASES])
def test_walk_non_numeric(name, path, value):
    # a value the bound's test cannot compare is refused by name, never a bare TypeError or ValueError
    out, exc = _call(name, path, value)
    if exc is not None:
        _refused_by_name(name, path, repr(value), exc)
    else:
        assert (name, path, repr(value)) in ALLOWED, f"{name}({path}={value!r}) returned"


@pytest.mark.parametrize("name, path, value", INT_CASES, ids=[f"{n}-{p}-{v!r}" for n, p, v in INT_CASES])
def test_walk_ints(name, path, value):
    # a count that is not a whole number in its bound must be refused: 2.5 loops or scans once ran
    out, exc = _call(name, path, value)
    if exc is not None:
        _refused_by_name(name, path, value, exc)
    else:
        assert (name, path, value) in ALLOWED, f"{name}({path}={value!r}) returned"
        assert _finite(out), f"{name}({path}={value!r}) returned a non-finite output"


def test_every_reexported_callable_is_walked_or_named():
    exported = {name for name, obj in vars(triholonomy).items()
                if callable(obj) and not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == set(WALK) | NOT_WALKED | RECORDS
    assert not (set(WALK) & NOT_WALKED or set(WALK) & RECORDS or NOT_WALKED & RECORDS)
    assert all(floats or ints for _, floats, ints in WALK.values())
    assert {(n, p) for n, p, _ in ALLOWED} <= {(n, p) for n, p, _ in CASES + INT_CASES}


def test_count_bound():
    steps, loops = errors.count(8), errors.count(1, math.inf)
    assert (steps[1], loops[1]) == ("an int in [8, 67108864]", "an int of at least 1")
    assert all(steps[0](v) for v in (8, np.int64(8), np.uint8(8), 2**26))
    assert not any(steps[0](v) for v in (7, 2**26 + 1, 8.0, True, np.bool_(True), math.inf))
    assert loops[0](2**100) and not loops[0](0)


def test_check_names_the_plain_value_and_the_exact_bound():
    # a numpy scalar prints as the Python number it holds, never as np.float64(...), and at_most's limit exactly
    with pytest.raises(ValidationError, match=r"^x must be positive and finite, got nan$"):
        errors.check("x", np.float64("nan"), errors.POSITIVE)
    with pytest.raises(NumericalError, match=r"^y must be at most 1\.0000000001, got 3$"):
        errors.guard("y", np.int64(3), errors.at_most(1.0 + 1e-10))
    with pytest.raises(NumericalError, match=r"^z must be finite, got \(inf\+0j\)$"):
        errors.guard("z", np.complex128(math.inf), errors.FINITE)
    assert errors.guard("y", np.float64(0.5), errors.at_most(0.5)) == 0.5
    # numpy scalars in a list, and an array, print as a Python list: never [np.float64(1.0), ...] or array([...])
    drive, refused = BondDrive(**DRIVE), r"^masses must be three positive finite values, got "
    with pytest.raises(ValidationError, match=refused + r"\[1\.0, 2\.0\]$"):
        phase_sweep(drive, [np.float64(1), np.float64(2)], [0.0])
    with pytest.raises(ValidationError, match=refused + r"\[1\.0, -2\.0, 3\.0\]$"):
        phase_sweep(drive, np.array([1.0, -2.0, 3.0]), [0.0])


def test_a_long_value_prints_abbreviated_on_one_short_line():
    # 200000 masses once printed a message of 1 000 049 characters
    with pytest.raises(ValidationError) as refused:
        phase_sweep(BondDrive(**DRIVE), np.ones(200000), [0.0])
    assert str(refused.value) == ("masses must be three positive finite values, got "
                                  "[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, ...]")
    # at most 8 entries of a list or tuple, 200 characters of a string or a number
    for value in ("x" * 1000, (0.5,) * 9, 10**250, np.arange(10.0)):
        with pytest.raises(ValidationError) as refused:
            errors.check("v", value, errors.at_most(0))
        assert "\n" not in str(refused.value) and len(str(refused.value)) < 300, str(refused.value)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_long_masses_list_exits_2_on_one_short_line(tmp_path, capsys, command):
    params = {"drive": DRIVE, "masses": [1.0] * 10**5, "periods": 2, "steps_per_period": 1536}
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({"schema_version": 1, "scenario": "trimer-sim", "params": params}))
    assert cli.main([command, str(path)] + (["--out", str(out)] if command == "run" else [])) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.count("\n") == 1 and len(stderr) < 300, stderr[:400]
    assert stderr.startswith("validation error: trimer-sim params: parameter 'masses' must be three positive finite ")
    assert not out.exists()


@pytest.mark.parametrize("bound", [errors.POSITIVE, errors.count(1, math.inf), errors.FINITE, errors.at_most(math.inf)],
                         ids=["positive", "count", "finite", "at-most-inf"])
@pytest.mark.parametrize("value", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "negative-int", "fraction"])
def test_a_real_beyond_the_float_range_fails_whatever_its_bound(bound, value):
    with pytest.raises(ValidationError, match=r"^v must be .+, got a number beyond the float range$"):
        errors.check("v", value, bound)


# Python ints beyond the float range: each passed its field's bound and ended in a bare OverflowError
FLOAT_RANGE_PROBES = {
    "BondDrive-d12": (lambda: BondDrive(**dict(DRIVE, d12=10**400)), "d12"),
    "PlatformParams-e_a": (lambda: PlatformParams(e_a=10**400), "e_a"),
    "HolonomyLoop-charge": (lambda: HolonomyLoop(make_ellipse_loop(math.pi / 2, 0.1, 0.1, 64), charge=10**400),
                            "charge"),
    "hopf_pair-radius1": (lambda: hopf_pair(10**400, 1.0), "radius1"),
    "synth_phase_gate-q": (lambda: synth_phase_gate(10**400), "coupling weight q"),
}


@pytest.mark.parametrize("probe", list(FLOAT_RANGE_PROBES))
def test_an_int_beyond_the_float_range_is_refused_by_name(probe):
    call, name = FLOAT_RANGE_PROBES[probe]
    with pytest.raises(ValidationError, match=rf"^{name} must be positive and finite, got a number beyond the float"):
        call()


def test_precession_amplitude_whose_square_overflows_is_refused_by_name():
    # u^2 + v^2 once overflowed with a RuntimeWarning before the circle check; below 2^252 no sum of a^4 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        refused = r"^a must be in \(0, d = 1e\+200\) and below 2\^252, .+, got 1e\+199$"
        with pytest.raises(ValidationError, match=refused):
            precession_berry_phase(1e200, 1e199, 1.0)
        assert precession_berry_phase(1e300, 2.0**252 * (1 - 2**-53), 1.0) == pytest.approx(math.pi, abs=1e-6)
        assert precession_berry_phase(1.0, 0.15, 3.0) == 3.1415925765848707  # the bits before the rule


@pytest.mark.parametrize("omega", [1e-308, 5e-324])
def test_precession_frequency_whose_period_overflows_is_refused_by_name(omega):
    # 2 pi / omega overflowed to inf in Python, and np.linspace(0, inf, ...) warned "invalid value encountered in
    # multiply"; the slowest omega whose period is finite still gives pi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        refused = rf"^omega must be positive and finite, with a finite period 2 pi / omega, got {omega!r}$"
        with pytest.raises(ValidationError, match=refused):
            precession_berry_phase(1.0, 0.15, omega)
        slowest = 2 * math.pi / np.finfo(float).max
        assert precession_berry_phase(1.0, 0.15, slowest) == pytest.approx(math.pi, abs=1e-6)


# Inputs the library accepted although the CLI refused them; each failed as its comment says.
PROBES = {
    # a RuntimeWarning, then "triangle inequality violated"
    "reconstruct_rotation-drive-d-inf": (lambda: reconstruct_rotation(BondDrive(**dict(DRIVE, d=math.inf)),
                                                                      MASSES, 2 * math.pi), "d"),
    "reconstruct_rotation-drive-phi23-inf": (
        lambda: reconstruct_rotation(BondDrive(**DRIVE, phi23=math.inf), MASSES, 2 * math.pi), "phi23"),
    # a RuntimeWarning, then "Wilson line is not unitary to 1e-10"
    "integrate_wilson-charge-inf": (
        lambda: integrate_wilson(HolonomyLoop(make_ellipse_loop(math.pi / 2, 0.1, 0.1, 64), charge=math.inf)),
        "charge"),
    "wilson_from_rates-charge-inf": (lambda: wilson_from_rates(lambda s: 0.1, lambda s: 0.01, math.inf, 64),
                                     "charge"),
    # a RuntimeWarning, then "non-finite curve points"
    "hopf_pair-radius1-inf": (lambda: hopf_pair(math.inf, 1.0, 64), "radius1"),
    # a RuntimeWarning, then "not a circular precession"
    "precession_berry_phase-phi13-inf": (lambda: precession_berry_phase(1.0, 0.15, 3.0, phi13=math.inf), "phi13"),
    # accepted; reconstruct_rotation then failed with "triangle inequality violated", the wrong reason
    "BondDrive-phi13-nan": (lambda: BondDrive(**DRIVE, phi13=math.nan), "phi13"),
    # returned 3.1415925765848707, the value for d = 1
    "precession_berry_phase-d-inf": (lambda: precession_berry_phase(math.inf, 0.15, 3.0), "d"),
    # the adiabatic window passed with an infinite gap, and the per-loop leakage read 0.0
    "adiabatic_window-e_a-inf": (lambda: adiabatic_window(PlatformParams(e_a=math.inf)), "e_a"),
    "leakage_estimate-e_a-inf": (lambda: leakage_estimate(PlatformParams(e_a=math.inf)), "e_a"),
    # returned the trace 1.4412905367456887 at contrast 0.818; every whole count from 3 gives 1.4156076488754468
    "ramsey_echo-scan_count-3.5": (lambda: ramsey_echo(_pi2_loop(), 1.0, PlatformParams(), scan_count=3.5),
                                   "scan_count"),
    # returned a Wilson line sampled at s = 1.257, 3.770 and 6.283, the last 2 pi and not a midpoint
    "wilson_from_rates-n_steps-2.5": (lambda: wilson_from_rates(lambda s: 0.1, lambda s: 0.05, 1.0, 2.5), "n_steps"),
    # returned a trace of 1.8778930881307139, though HolonomyLoop refuses fewer than 8 steps
    "wilson_from_rates-n_steps-4": (lambda: wilson_from_rates(lambda s: 0.1, lambda s: 0.05, 1.0, 4), "n_steps"),
    # returned 2 repetitions
    "synth_phase_gate-n_rep-2.5": (lambda: synth_phase_gate(100.0, n_rep=2.5), "n_rep"),
    # a bare ValueError
    "synth_phase_gate-n_rep-nan": (lambda: synth_phase_gate(100.0, n_rep=math.nan), "n_rep"),
    "synth_phase_gate-n_samples--5": (lambda: synth_phase_gate(100.0, n_samples=-5), "n_samples"),
    # a TypeError
    "synth_phase_gate-n_samples-8.5": (lambda: synth_phase_gate(100.0, n_samples=8.5), "n_samples"),
    # a ZeroDivisionError, and a bare ValueError
    "synth_hadamard_gate-steps-0": (lambda: synth_hadamard_gate(100.0, 1024, 0), "steps"),
    "synth_hadamard_gate-steps-nan": (lambda: synth_hadamard_gate(100.0, 1024, math.nan), "steps"),
    # a bare ValueError, and a ZeroDivisionError
    "ramsey_echo-scan_count-nan": (lambda: ramsey_echo(_pi2_loop(), 1.0, PlatformParams(), scan_count=math.nan),
                                   "scan_count"),
    "wilson_from_rates-n_steps-0": (lambda: wilson_from_rates(lambda s: 0.1, lambda s: 0.05, 1.0, 0), "n_steps"),
    # a TypeError
    "hopf_pair-n_segments-16.0": (lambda: hopf_pair(1.0, 1.0, 16.0), "n_segments"),
    # an OverflowError at 4 pi / k
    "cs_phase-k-huge": (lambda: cs_phase([1.0, 1.0], LinkData.pair(1), 10**400), "level k"),
    # ran as k = 1
    "cs_phase-k-True": (lambda: cs_phase([1.0, 1.0], LinkData.pair(1), True), "level k"),
    # stored a linking number of 2, and cs_phase([1.0, 1.0], it, 4) returned 0.0
    "LinkData-lk_matrix-2.5": (lambda: LinkData([[0, 2.5], [2.5, 0]]), "lk_matrix"),
    # stored 2, and 1
    "LinkData.pair-lk-2.7": (lambda: LinkData.pair(2.7), "lk"),
    "LinkData.pair-lk-True": (lambda: LinkData.pair(True), "lk"),
    # stored [0, 0]
    "LinkData-slk-0.5": (lambda: LinkData([[0, 1], [1, 0]], [0.5, 0]), "slk"),
    # a RuntimeWarning: invalid value encountered in cast
    "LinkData.pair-lk-nan": (lambda: LinkData.pair(math.nan), "lk"),
    # a bare OverflowError
    "LinkData.pair-lk-2**70": (lambda: LinkData.pair(2**70), "lk"),
    # a bare ValueError: the bound's test could not compare the value
    "reconstruct_rotation-masses-ragged": (lambda: reconstruct_rotation(BondDrive(**DRIVE), [1.0, [2.0], 3.0], 10.0),
                                           "masses"),
    # a bare TypeError, for the same reason
    "phase_sweep-masses-strings": (lambda: phase_sweep(BondDrive(**DRIVE), ["1", "2", "3"], [0.0]), "masses"),
    "hopf_pair-radius1-string": (lambda: hopf_pair("1.0"), "radius1"),
    "synth_phase_gate-q-string": (lambda: synth_phase_gate("2"), "coupling weight q"),
    "BondDrive-d12-string": (lambda: BondDrive("1.1", 0.2, 1.0, 1.0, 0.15, 3.0), "d12"),
    "make_ellipse_loop-theta0-string": (lambda: make_ellipse_loop("1", 0.1, 0.1), "base colatitude theta0"),
}


@pytest.mark.parametrize("probe", list(PROBES))
def test_probe_is_refused_by_name(probe):
    call, name = PROBES[probe]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=rf"^{name} must be "):
            call()


# (drive lengths, masses) whose products overflow although each field passes its bound.  Each failed as its
# comment says, under trimer-sim and phase-sweep alike unless noted.
SCALE_PROBES = {
    # _Frames squares the bonds: RuntimeWarnings, then exit 3 ("residual nan exceeds 1e-8 of scale nan")
    "bonds-1e200": (dict(d12=1e200, d=1e200), MASSES),
    "rigid-bonds-1e200": (dict(d12=1e200, a12=0.0, d=1e200, a=0.0), MASSES),
    # the mass sum overflows: RuntimeWarnings, then exit 3
    "masses-1e308": ({}, [1e308] * 3),
    # _jacobi's mass products overflow: trimer-sim exited 2 as "non-finite loop samples", phase-sweep 0
    "masses-1e200": ({}, [1e200] * 3),
    # M b^2 = 3e305 is finite, but b^2 is not: RuntimeWarnings, then exit 3
    "masses-1e-5-bonds-1e155": (dict(d12=1e155, d=1e155), [1e-5] * 3),
    # b^2 and M b^2 are finite, but the window inertia sums are not: trimer-sim exited 0 with NaN in every
    # L_eff row; phase-sweep, which sums no window, exited 0
    "lengths-x1e153": ({key: DRIVE[key] * 1e153 for key in ("d12", "a12", "d", "a")}, MASSES),
}


@pytest.mark.parametrize("probe", list(SCALE_PROBES))
def test_scale_probe_is_refused_by_name(probe):
    lengths, masses = SCALE_PROBES[probe]
    drive = BondDrive(**dict(DRIVE, **lengths))
    named = r"^masses \[.+\] \(total M\) and largest bond b = max\(d12 \+ a12, d \+ a\) = \S+ overflow the trimer's"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=named):
            reconstruct_rotation(drive, masses, 2 * math.pi)
        with pytest.raises(ValidationError, match=named):
            phase_sweep(drive, masses, [0.5])


@pytest.mark.parametrize("action", ["always", "error"])
@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("scenario", ["trimer-sim", "phase-sweep"])
@pytest.mark.parametrize("probe", list(SCALE_PROBES))
def test_scale_probe_exits_2_by_name(tmp_path, capsys, probe, scenario, command, action):
    lengths, masses = SCALE_PROBES[probe]
    params = {"drive": dict(DRIVE, **lengths), "masses": masses}
    params.update({"periods": 2, "steps_per_period": 1536} if scenario == "trimer-sim" else {"phi_count": 5})
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({"schema_version": 1, "scenario": scenario, "params": params}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        assert cli.main([command, str(path)] + (["--out", str(out)] if command == "run" else [])) == 2
    assert not caught
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.count("\n") == 1
    assert stderr.startswith("validation error: masses [") and "overflow the trimer's scale" in stderr
    assert not out.exists()


@pytest.mark.parametrize("lengths, masses", [
    ({key: DRIVE[key] * 1e149 for key in ("d12", "a12", "d", "a")}, MASSES),  # 2^27 M b^2 = 2.0e307
    ({}, [4e153] * 3),  # M^2 = 1.4e308
    (dict(d12=9e153, a12=0.0, d=8e153, a=0.0), [1e-10] * 3),  # 2 b^2 = 1.6e308
], ids=["lengths-x1e149", "masses-4e153", "bonds-9e153"])
def test_scales_inside_the_rule_run_clean(lengths, masses):
    drive = BondDrive(**dict(DRIVE, **lengths))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = reconstruct_rotation(drive, masses, 2 * math.pi, 2 * math.pi / 512)
        assert _finite(traj) and _finite(trimer.effective_momentum_series(traj, 2 * math.pi))
        assert _finite(phase_sweep(drive, masses, [-0.5, 0.5]))


# (drive lengths, masses) whose products underflow although each field passes its bound.  Each exited 0 under
# trimer-sim and phase-sweep and returned as its comment says; phase_sweep at phi = -3 of the drive with
# DRIVE's lengths and equal masses is 3.4826e-3, and 3.6044e-3 at MASSES.
UNDERFLOW_PROBES = {
    # phase_sweep returned 4.6305e-5
    "masses-1e-320": ({}, [1e-320] * 3),
    # phase_sweep returned 0.0
    "masses-5e-324": ({}, [5e-324] * 3),
    # m^2 underflows, so _jacobi's mass products read 0: phase_sweep was right, but every trimer-sim L_eff read 0.0
    "masses-1e-310": ({}, [1e-310] * 3),
    "masses-1e-300": ({}, [1e-300] * 3),
    # b^2 is subnormal: phase_sweep returned 3.8176e-3
    "lengths-x1e-160": ({key: DRIVE[key] * 1e-160 for key in ("d12", "a12", "d", "a")}, MASSES),
    # m b^2 is subnormal: phase_sweep returned 7.0697e-4
    "lengths-x1e-110-masses-1e-100": ({key: DRIVE[key] * 1e-110 for key in ("d12", "a12", "d", "a")}, [1e-100] * 3),
}
UNDERFLOW = r"^masses \[.+\] \(smallest m\) and shortest bond b = min\(d12 - a12, d - a\) = \S+ underflow the trimer's"


@pytest.mark.parametrize("probe", list(UNDERFLOW_PROBES))
def test_underflow_probe_is_refused_by_name(probe):
    lengths, masses = UNDERFLOW_PROBES[probe]
    drive = BondDrive(**dict(DRIVE, **lengths))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=UNDERFLOW):
            reconstruct_rotation(drive, masses, 2 * math.pi)
        with pytest.raises(ValidationError, match=UNDERFLOW):
            phase_sweep(drive, masses, [0.5])


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("scenario", ["trimer-sim", "phase-sweep"])
@pytest.mark.parametrize("probe", list(UNDERFLOW_PROBES))
def test_underflow_probe_exits_2_by_name(tmp_path, capsys, probe, scenario, command):
    lengths, masses = UNDERFLOW_PROBES[probe]
    params = {"drive": dict(DRIVE, **lengths), "masses": masses}
    params.update({"periods": 2, "steps_per_period": 1536} if scenario == "trimer-sim" else {"phi_count": 5})
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({"schema_version": 1, "scenario": scenario, "params": params}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, str(path)] + (["--out", str(out)] if command == "run" else [])) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.count("\n") == 1
    assert stderr.startswith("validation error: masses [") and "underflow the trimer's scale" in stderr
    assert not out.exists()


def test_the_smallest_masses_inside_the_underflow_rule_keep_their_bits():
    # m = 1e-150 keeps m^2 = 1e-300 normal; these are the values of the code before the rule
    drive = BondDrive(**DRIVE, phi13=math.pi / 4, phi23=-math.pi / 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gains = phase_sweep(drive, [1e-150] * 3, [-3.0, 0.0, 3.0]).tolist()
        traj = reconstruct_rotation(drive, [1e-150] * 3, 4 * math.pi, 2 * math.pi / 512)
        l_eff = trimer.effective_momentum_series(traj, 2 * math.pi)[1]
    assert gains == [0.0034825783756776097, 2.958765622760039e-17, -0.0034825783756775425]
    assert traj.theta[-1] == -0.32437074848072306
    assert (l_eff[:3] / 3e-150).tolist() == [0.00933326486151066, 0.009328209361745901, 0.009323601120691484]


def _declared(cls) -> dict:
    return {f.name: f.metadata["bound"] for f in dataclasses.fields(cls)}


def _params(table: dict, prefix: str = ""):
    """(key path, _Param) of every entry of a CLI table, nested tables included."""
    for key, param in table.items():
        yield prefix + key, param
        if isinstance(param.kind, dict):
            yield from _params(param.kind, f"{prefix}{key}.")


def test_cli_tables_hold_the_library_bounds():
    # the very bound objects, so no second copy of a bound can come back in the CLI
    tables = {name: table for name, (table, _) in cli.SCENARIOS.items()}
    drive, platform = _declared(BondDrive), _declared(PlatformParams)
    assert {k: p.bound for k, p in tables["trimer-sim"]["drive"].kind.items()} == drive
    assert all(p.bound is drive[k] for k, p in tables["trimer-sim"]["drive"].kind.items())
    assert set(tables["phase-sweep"]["drive"].kind) == set(drive) - {"phi13", "phi23"}
    assert all(p.bound is drive[k] for k, p in tables["phase-sweep"]["drive"].kind.items())
    for scenario in ("demo-budget", "ramsey"):
        assert set(tables[scenario]["platform"].kind) == set(platform)
        assert all(p.bound is platform[k] for k, p in tables[scenario]["platform"].kind.items())
    assert tables["trimer-sim"]["masses"].bound is trimer.MASSES
    assert tables["phase-sweep"]["masses"].bound is trimer.MASSES
    assert all(tables[s]["q"].bound is errors.POSITIVE for s in ("gate-synth", "trace-sweep", "ramsey"))
    assert tables["linking"]["k"].bound is linking.LEVEL
    assert all(tables["linking"]["hopf"].kind[r].bound is errors.POSITIVE for r in ("radius1", "radius2"))
    for scenario in ("gate-synth", "trace-sweep", "ramsey"):
        assert tables[scenario]["samples"].bound is gates.SAMPLES
        assert tables[scenario]["steps"].bound is holonomy.STEPS
    assert tables["ramsey"]["scan_count"].bound is demonstrator.SCANS
    assert tables["linking"]["hopf"].kind["segments"].bound is linking.SEGMENTS
    # the CLI's own count only where no library call checks the value
    counted = {(s, path) for s, table in tables.items() for path, p in _params(table) if p.bound is cli._COUNT}
    assert counted == {("trimer-sim", "periods"), ("trimer-sim", "steps_per_period"), ("phase-sweep", "phi_count"),
                       ("phase-sweep", "periods")}
    assert not any(hasattr(cli, name) for name in ("_TURN", "_POSITIVE", "_MAX_REPETITIONS"))
