import contextlib
import copy
import glob
import hashlib
import io
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triholonomy
from triholonomy import gates
from triholonomy.cli import (
    _CSV_BLOCK_ROWS,
    _CSV_FAST_MIN_CELLS,
    _ROOT,
    SCENARIOS,
    _g17_digits,
    _g17_slots,
    _write_csv,
    _write_json,
    load_config,
    main,
    run_scenario,
)
from triholonomy.connection import BlochField, ControlField, eigenframe_rate_samples
from triholonomy.errors import NumericalError
from triholonomy.gates import make_ellipse_loop
from triholonomy.holonomy import HolonomyLoop, integrate_wilson, midpoint_grid, trace_expansion_from_rates
from triholonomy.trimer import BondDrive, _Frames, bond_lengths, reconstruct_rotation

from test_bounds import SCALE_PROBES

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
SHIPPED_CONFIGS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(CONFIG_DIR, "*.json")))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_hopf_curves(directory, n_points=257, scale=1.0, names=("c1.csv", "c2.csv")):
    """Two linked circles, times ``scale``, as curve CSVs in ``directory``; returns their file names."""
    t = np.linspace(0, 2 * math.pi, n_points)
    c1 = scale * np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
    c2 = scale * np.stack([1 + np.cos(t), 0 * t, -np.sin(t)], axis=1)
    names = list(names)
    for name, pts in zip(names, (c1, c2)):
        pts[-1] = pts[0]
        lines = ["x,y,z"] + [",".join(format(float(v), ".17g") for v in row) for row in pts]
        (directory / name).write_text("\n".join(lines))
    return names


def small_gate_config(**overrides):
    cfg = {
        "schema_version": 1,
        "scenario": "gate-synth",
        "seed": 0,
        "params": {"q": 50.0, "target": "pi2", "samples": 256, "steps": 1024},
    }
    cfg.update(overrides)
    return cfg


TRIMER_DRIVE = {"d12": 1.1, "a12": 0.2, "omega12": 1.0, "d": 1.0, "a": 0.15, "omega": 3.0}


def small_trimer_config():
    drive = dict(TRIMER_DRIVE, phi13=math.pi / 4, phi23=-math.pi / 4)
    params = {"drive": drive, "masses": [2.1, 2.1, 4.7], "periods": 3, "steps_per_period": 768}
    return {"schema_version": 1, "scenario": "trimer-sim", "seed": 0, "params": params}


# Small valid params per scenario; each bad-input case overrides one entry.
BASE_PARAMS = {
    "trimer-sim": {"drive": TRIMER_DRIVE, "periods": 2, "steps_per_period": 256},
    "phase-sweep": {"drive": TRIMER_DRIVE, "phi_count": 3, "periods": 2},
    "ramsey": {"platform": {}, "q": 400.0, "samples": 512, "steps": 2048},
    "trace-sweep": {"psi_values": [0.05], "steps": 2048, "samples": 512},
    "linking": {"hopf": {"segments": 64}},
    "gate-synth": {"q": 50.0, "target": "pi2", "samples": 256, "steps": 1024},
    "demo-budget": {"platform": {}},
}

# (scenario, params override, parameter named on stderr); run and validate exit 2 on each.  The rows
# that set a key of RETIRED_KEYS exit 2 as an unknown parameter.
BAD_SCENARIO_INPUTS = [
    ("trimer-sim", {"periods": "x"}, "periods"),
    ("trimer-sim", {"periods": 0}, "periods"),
    ("trimer-sim", {"steps_per_period": 0}, "steps_per_period"),
    ("trimer-sim", {"masses": "abc"}, "masses"),
    ("trimer-sim", {"masses": [1.0, 2.0]}, "masses"),
    ("trimer-sim", {"masses": [1.0, 0.0, 1.0]}, "masses"),
    ("trimer-sim", {"drive": dict(TRIMER_DRIVE, phi13="abc")}, "phi13"),
    ("trimer-sim", {"drive": dict(TRIMER_DRIVE, phi13=True)}, "phi13"),
    ("trimer-sim", {"drive": dict(TRIMER_DRIVE, d=math.inf)}, "d"),
    ("phase-sweep", {"phi_count": "x"}, "phi_count"),
    ("phase-sweep", {"phi_count": 0}, "phi_count"),
    ("phase-sweep", {"phi_values": "x"}, "phi_values"),
    ("phase-sweep", {"phi_values": [0.5, math.nan]}, "phi_values"),
    ("phase-sweep", {"periods": 0}, "periods"),
    ("ramsey", {"q": True}, "q"),
    ("trace-sweep", {"q": True}, "q"),
    ("linking", {"slk": [10**30, 0]}, "slk"),
    ("linking", {"k": 10**400}, "k"),
    # non-numeric text, overflow and an empty magnitude grid
    ("trace-sweep", {"a": "x"}, "a"),
    ("trace-sweep", {"psi_values": "x"}, "psi_values"),
    ("demo-budget", {"window_factor": "x"}, "window_factor"),
    ("demo-budget", {"platform": {"t_loop": "x"}}, "t_loop"),
    ("gate-synth", {"n_rep": "3"}, "n_rep"),
    ("trace-sweep", {"gauge_rotations": 1e400}, "gauge_rotations"),
    ("trace-sweep", {"psi_values": [], "gauge_rotations": 1}, "psi_values"),
    # a string as a bool, fractional counts, a bool as a number, misspelt names
    ("ramsey", {"echo": "no"}, "echo"),
    ("gate-synth", {"n_rep": 2.5}, "n_rep"),
    ("demo-budget", {"platform": {"n_rep": 2.5}}, "n_rep"),
    ("ramsey", {"platform": {"charge": True}}, "charge"),
    ("trace-sweep", {"stpes": 4096}, "stpes"),
    ("ramsey", {"platform": {"t_lop": 1e-6}}, "t_lop"),
    ("trimer-sim", {"drive": dict(TRIMER_DRIVE, omega_12=1.0)}, "omega_12"),
    # parameters that validate must check as run does
    ("ramsey", {"steps": "abc"}, "steps"),
    ("trace-sweep", {"q": "x"}, "q"),
    ("linking", {"k": "x"}, "k"),
    ("phase-sweep", {"periods": "x"}, "periods"),
    ("gate-synth", {"target": "cnot"}, "target"),
    ("linking", {"curve_files": ["only.csv"]}, "curve_files"),
    # counts above the sample budget, which used to fail in numpy's allocator
    ("gate-synth", {"steps": 10**12}, "steps"),
    ("gate-synth", {"samples": 10**12}, "samples"),
    ("trimer-sim", {"periods": 10**12}, "periods"),
    ("trimer-sim", {"steps_per_period": 10**12}, "steps_per_period"),
    ("phase-sweep", {"phi_count": 10**12}, "phi_count"),
    ("ramsey", {"scan_count": 10**12}, "scan_count"),
    ("linking", {"hopf": {"segments": 10**12}}, "segments"),
    ("trace-sweep", {"gauge_rotations": 10**12}, "gauge_rotations"),
    # retired keys: the adiabatic-window margin is 10, and the budget has no contingency
    ("demo-budget", {"window_factor": -1.0}, "window_factor"),
    ("demo-budget", {"window_factor": 0}, "window_factor"),
    ("ramsey", {"window_factor": -1.0}, "window_factor"),
    ("ramsey", {"window_factor": 0.5}, "window_factor"),
    ("demo-budget", {"contingency": 0}, "contingency"),
    ("demo-budget", {"contingency": -1.0}, "contingency"),
    ("demo-budget", {"contingency": 0.5}, "contingency"),
    ("demo-budget", {"contingency": 1e-300}, "contingency"),
    # keys that reach no output: the sweep sets the phases, and q derives the loop count
    ("phase-sweep", {"drive": dict(TRIMER_DRIVE, phi13=0.5)}, "phi13"),
    ("gate-synth", {"target": "hadamard", "n_rep": 3}, "n_rep"),
    # a negative count once skipped the gauge check and exited 0
    ("trace-sweep", {"gauge_rotations": -1}, "gauge_rotations"),
]

# Config keys that no longer exist, each with a value its old table accepted: (scenario, key path, value).
# Each restated another input or held only its default; a config that sets one exits 2 and names it.
RETIRED_KEYS = [
    ("gate-synth", ("n_rep",), 3),  # q derives the loop count
    ("phase-sweep", ("phi_values",), [0.0]),  # phi_count sets the grid
    ("ramsey", ("delta_e",), 2 * math.pi * 1.0e4),  # the platform's doublet splitting
    ("ramsey", ("platform", "charge"), 100.0),  # ramsey's q is required instead
    ("demo-budget", ("platform", "charge"), 100.0),
    ("ramsey", ("window_factor",), 10.0),  # the window's margin is 10
    ("demo-budget", ("window_factor",), 10.0),
    ("demo-budget", ("contingency",), 1.0),
]

# Trace sweeps just over the sample budget, by psi count and by gauge rotations: (params override, cost).
OVER_BUDGET_TRACE_SWEEPS = [
    ({"psi_values": [0.05] * 64, "steps": 2**20}, "(64 psi_values + 0 gauge_rotations + 1) x 1048576"),
    ({"gauge_rotations": 2**15 - 1}, "(1 psi_values + 32767 gauge_rotations + 1) x 2048"),
]
# The same sweeps at the budget, (63 + 0 + 1) x 2**20 and (1 + 32766 + 1) x 2048 = 2**26 samples.
AT_BUDGET_TRACE_SWEEPS = [{"psi_values": [0.05] * 63, "steps": 2**20}, {"gauge_rotations": 2**15 - 2}]

# Config roots that both commands refuse, each with its one stderr line.  The first two once raised a
# TypeError (exit 1); the misspelt seed ran with seed 0, the NaN note was echoed into the manifest as
# non-standard JSON, and schema_version true and 1.0 were accepted.
BAD_ROOTS = [
    (small_gate_config(scenario=["x"]), "config: parameter 'scenario' has wrong type"),
    (small_gate_config(scenario={}), "config: parameter 'scenario' has wrong type"),
    ({}, "config: missing required parameter 'schema_version'"),
    (small_gate_config(sead=3), "config: unknown parameter 'sead'"),
    (small_gate_config(note=math.nan), "config: unknown parameter 'note'"),
    (small_gate_config(schema_version=True), "config: parameter 'schema_version' has wrong type"),
    (small_gate_config(schema_version=1.0), "config: parameter 'schema_version' has wrong type"),
    (small_gate_config(schema_version=2), "config: parameter 'schema_version' must be 1, got 2"),
    (small_gate_config(scenario="nope"),
     "config: parameter 'scenario' must be one of " + ", ".join(SCENARIOS) + ", got 'nope'"),
    (small_gate_config(params=[]), "config: parameter 'params' has wrong type"),
    ([1], "config root must be a JSON object"),
    (None, "config root must be a JSON object"),
]

# Config files that the JSON reader cannot decode; each once raised a traceback (exit 1).
UNREADABLE_CONFIGS = {
    "invalid-utf8": b'{"schema_version": 1, "scenario": "gate-synth\xff"}',
    "deep-array": b"[" * 5000 + b"]" * 5000,
    "long-integer": b'{"schema_version": 1, "scenario": "gate-synth", "seed": ' + b"9" * 5000 + b"}",
}

# Loops whose semi-axes round away at the base point; each run once exited 0 with wrong numbers.
UNRESOLVED_ELLIPSES = [
    ("gate-synth", {"q": 1e300}),  # wrote the identity matrix
    ("ramsey", {"q": 1e30}),  # wrote reconstructed_trace 1.453 where sqrt(2) is expected
    ("trace-sweep", {"a": 1e-15, "b": 1e-15}),  # traced the staircase that rounding left of it
]

# Configs each scenario rejects while building its loop or curves, before any transport:
# (scenario, params override, config override, stderr phrase); run and validate both exit 2.
PREFLIGHT_BUILDS = [
    ("gate-synth", {"q": 1e300}, {}, "semi-axis a is lost to rounding"),
    ("gate-synth", {"q": 1e300, "target": "hadamard"}, {}, "semi-axis a is lost to rounding"),
    ("ramsey", {"q": 1e30}, {}, "semi-axis a is lost to rounding"),
    ("trace-sweep", {"a": 1e-15, "b": 1e-15}, {}, "semi-axis a is lost to rounding"),
    ("trace-sweep", {"theta0": 4.0}, {}, "base colatitude must lie strictly between the poles"),
    ("gate-synth", {}, {"output_dir": "nul\0byte"},
     "config: parameter 'output_dir' must be free of NUL bytes, got 'nul\\x00byte'"),
    ("phase-sweep", {"phi_values": [4.0]}, {}, "phase-sweep params: unknown parameter 'phi_values'"),
    ("linking", {"charges": [1, 2, 3]}, {}, "'charges' needs one value per curve (2)"),
    ("linking", {"slk": [0]}, {}, "'slk' needs one value per curve (2)"),
    ("linking", {"curve_files": ["two.csv", "two.csv"]}, {}, "must have three columns"),
    # a Hopf pair times 6e307: validate once passed it with two RuntimeWarnings, and run exited 3
    ("linking", {"curve_files": ["far1.csv", "far2.csv"]}, {}, "overflow its centroid or segment midpoints"),
    # circle 2 misses circle 1's disc, so the "Hopf pair" is unlinked
    ("linking", {"hopf": {"radius1": 1.0, "radius2": 2.5, "segments": 64}}, {}, "radius2 must be below 2"),
    ("linking", {"hopf": {"radius1": 1e-8, "radius2": 1e8, "segments": 64}}, {}, "radius2 must be below 2"),
    # the diameter of this pair is finite but its centroid overflows
    ("linking", {"hopf": {"radius1": 6.5e307, "segments": 64}}, {},
     "overflow its centroid or segment midpoints"),
    # repetition counts whose product drifts from unitary; validate once passed them and run exited 2
    ("gate-synth", {"q": 1e-300}, {}, "1.111111111e+301 loop repetitions exceed 4194304; raise q"),
    ("gate-synth", {"q": 1e-8}, {}, "1111111112 loop repetitions exceed 4194304"),
    ("gate-synth", {"n_rep": 2**22 + 1}, {}, "gate-synth params: unknown parameter 'n_rep'"),
    # a count that overflows a float once raised a traceback (exit 1)
    ("gate-synth", {"q": 1e-320}, {}, "coupling weight q = 1e-320 overflows the repetition count"),
    ("ramsey", {"q": 5e-324}, {}, "coupling weight q = 4.94e-324 overflows the repetition count"),
    # a phase of 1e12 rounds omega t + phi so coarsely that the window loops open
    ("trimer-sim", {"drive": dict(TRIMER_DRIVE, phi13=1e12)}, {}, "'phi13' must be within one turn"),
    # the sweep sets the phases, so its drive has none to give
    ("phase-sweep", {"drive": dict(TRIMER_DRIVE, phi23=-7.0)}, {},
     "phase-sweep params drive: unknown parameter 'phi23'"),
]

# Output directories that cannot be created: an existing file, a path under a file, a path
# under a dangling symlink and a path with a NUL byte (which no environment variable can hold).
UNUSABLE_OUTPUT_DIRS = [
    (name, source)
    for name in ("dangling/sub", "file", "file/sub", "nul\0byte")
    for source in ("--out", "TRIHOLONOMY_OUTDIR", "output_dir")
    if not (source == "TRIHOLONOMY_OUTDIR" and "\0" in name)
]

# Drives whose time grid exceeds the sample budget although each count is within it.
OVERSIZED_TIME_GRIDS = [
    ("trimer-sim", {"periods": 2**14, "steps_per_period": 2**13}),
    ("phase-sweep", {"drive": dict(TRIMER_DRIVE, omega=1e200)}),
]
# The keys each scenario's refusal of such a grid asks to lower: phase-sweep's grid is one common period.
TIME_GRID_LEVERS = {
    "trimer-sim": "lower 'periods' or the steps per period",
    "phase-sweep": "bring the drive frequencies 'omega' and 'omega12' closer together",
}

# Drives whose frequency ratio omega/omega12 rounds to the fraction 0 (denominator <= 64).
ZERO_RATIO_DRIVES = [{"omega12": 10**12}, {"omega12": 1e200}, {"omega": 1e-300}]

# A platform whose modes are ordered but whose doublet splitting is not << 1/T_loop.
WINDOW_VIOLATION = {
    "e_e1": 2 * math.pi * 1.0e6, "e_e2": 2 * math.pi * 14.0e6, "e_a": 2 * math.pi * 18.0e6,
}

RATIO = (2, "frequency ratio overflows")
OVERFLOWING_DRIVE = dict(TRIMER_DRIVE, omega12=1e-300, omega=1e200)
# The ratio is exactly 3 but 2 pi/omega12 overflows: once refused as a 't_end' of inf, a key no config has.
PERIOD = (2, "common period overflows: drive frequencies 'omega12' = 4.94066e-324 and 'omega' = 1.4822e-323")
SLOW_DRIVE = dict(TRIMER_DRIVE, omega12=5e-324, omega=1.5e-323)
# (scenario, params override, {command: (exit code, stderr phrase)}): overflows that once exited 1 or
# named no config key; each exits within a second.
LEAK = (3, "leakage estimate overflows")
OVERFLOWING_INPUTS = [
    ("demo-budget", {"platform": {"t_loop": 1e-300}}, {"run": LEAK, "validate": LEAK}),
    ("trimer-sim", {"drive": OVERFLOWING_DRIVE}, {"run": RATIO, "validate": RATIO}),
    ("phase-sweep", {"drive": OVERFLOWING_DRIVE}, {"run": RATIO, "validate": RATIO}),
    ("trimer-sim", {"drive": SLOW_DRIVE}, {"run": PERIOD, "validate": PERIOD}),
    ("phase-sweep", {"drive": SLOW_DRIVE}, {"run": PERIOD, "validate": PERIOD}),
]

# A drive whose triangle inequality breaks at t = 0: (scenario, the message of both commands).
TRIANGLE_AT_START = [
    ("trimer-sim", "triangle inequality violated: bonds (3.2, 1.15, 1.15) at sample 0"),
    ("phase-sweep", "phase sweep at phi = -3.14159: triangle inequality violated: bonds (3.2, 1, 1) at sample 0"),
]


class TestRun:
    def test_gate_synth_happy_path(self, tmp_path):
        cfg_path = write_config(tmp_path, small_gate_config())
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        gate = json.loads((out / "gate.json").read_text())
        assert gate["fidelity"] > 1 - 1e-3
        assert len(gate["matrix"]) == 2 and len(gate["matrix"][0][0]) == 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "gate.json" in manifest["outputs"]
        assert manifest["config"]["scenario"] == "gate-synth"

    def test_manifest_echoes_the_read_root(self, tmp_path):
        # the root's defaults are filled in; params are echoed as given, once their table has read them
        cfg = small_gate_config()
        del cfg["seed"]
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"] == dict(cfg, seed=0, output_dir="")

    def test_trimer_sim_columns(self, tmp_path):
        cfg_path = write_config(tmp_path, small_trimer_config())
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        header = (out / "trimer_sim.csv").read_text().splitlines()[0]
        assert header == "t,xi12,xi13,xi23,theta,L_eff"

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_unknown_scenario_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path, small_gate_config(scenario="nope"))
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2

    def test_numerical_failure_exits_3_without_outputs(self, tmp_path):
        # amplitudes pass validation but the triangle degenerates mid-run
        cfg = {
            "schema_version": 1,
            "scenario": "trimer-sim",
            "seed": 0,
            "params": {
                "drive": {
                    "d12": 2.2, "a12": 0.3, "omega12": 1.0,
                    "d": 1.0, "a": 0.4, "omega": 3.0,
                },
                "masses": [1.0, 1.0, 1.0],
                "periods": 2,
            },
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 3
        assert not out.exists() or not any(out.iterdir())

    def test_overflowing_cs_phase_exits_3_without_outputs(self, tmp_path, capsys):
        params = dict(BASE_PARAMS["linking"], charges=[1e200, 1e200])
        cfg = {"schema_version": 1, "scenario": "linking", "seed": 0, "params": params}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 3
        assert "cs_phase" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("charges, phrase", [
        ([1e8, 1e8], "must be at most 2^20 rad, past which rounding exceeds 1e-9 rad, got 3.14159"),  # pi 1e16 rad
        ([1e200, 1e200], "must be at most 2^20 rad, past which rounding exceeds 1e-9 rad, got nan"),
    ], ids=["unreduced", "overflow"])
    def test_unreduced_cs_phase_exits_3_under_run_and_validate(self, tmp_path, capsys, command, charges, phrase):
        cfg = {"schema_version": 1, "scenario": "linking", "seed": 0,
               "params": dict(BASE_PARAMS["linking"], charges=charges, k=4)}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cs_phase" in err and phrase in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("scenario, override", OVERSIZED_TIME_GRIDS)
    def test_oversized_time_grid_exits_2(self, tmp_path, capsys, command, scenario, override):
        params = dict(BASE_PARAMS[scenario], **override)
        cfg = {"schema_version": 1, "scenario": scenario, "seed": 0, "params": params}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "time grid" in err and TIME_GRID_LEVERS[scenario] in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("scenario", ["trimer-sim", "phase-sweep"])
    @pytest.mark.parametrize("override", ZERO_RATIO_DRIVES, ids=["omega12-1e12", "omega12-1e200", "omega-1e-300"])
    def test_frequency_ratio_rounding_to_zero_exits_2(self, tmp_path, capsys, command, scenario, override):
        # the scenario refuses the ratio: 2 pi/omega12 is no period of the (1,3)/(2,3) bond pair
        params = dict(BASE_PARAMS[scenario], drive=dict(TRIMER_DRIVE, **override))
        cfg = {"schema_version": 1, "scenario": scenario, "seed": 0, "params": params}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "frequency ratio omega/omega12 = " in err and "nonzero rational" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, params, invariant",
        [
            ("phase-sweep", {"drive": dict(TRIMER_DRIVE, d12=1e200, d=1e200, a12=0, a=0)},
             "zero-angular-momentum invariant"),
            ("demo-budget", {"platform": {"e_e1": 1e200, "e_a": 1e201, "t_loop": 1e200}},
             "phase drift"),
            # zero splitting times an infinite gate time
            ("demo-budget", {"platform": {"e_e1": 31415926.5, "e_e2": 31415926.5, "t_loop": 1e308}},
             "phase drift"),
        ],
    )
    def test_overflow_to_nan_exits_3_without_outputs(self, tmp_path, capsys, monkeypatch, scenario, params,
                                                     invariant):
        # the trimer scale rule refuses the phase sweep's bonds by name first (exit 2, test_bounds.py); with
        # it bypassed, the invariant still fails closed
        monkeypatch.setattr("triholonomy.trimer._masses", lambda masses, drive: np.asarray(masses, dtype=float))
        cfg = {"schema_version": 1, "scenario": scenario, "seed": 0,
               "params": dict(BASE_PARAMS[scenario], **params)}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy reports the overflow itself
            assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 3
        assert invariant in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_ramsey_mode_ordering_exits_2(self, tmp_path, capsys, command):
        # a ramsey run needs the whole adiabatic window, not only the mode ordering
        for platform, message in (({"e_a": 2.5}, "mode ordering violated"),
                                  (WINDOW_VIOLATION, "adiabatic window violated")):
            params = dict(BASE_PARAMS["ramsey"], platform=platform)
            cfg = {"schema_version": 1, "scenario": "ramsey", "seed": 0, "params": params}
            out = tmp_path / "out"
            argv = [command, write_config(tmp_path, cfg)]
            assert main(argv + (["--out", str(out)] if command == "run" else [])) == 2
            assert message in capsys.readouterr().err
            assert not out.exists() or not any(out.iterdir())

    def test_most_repetitions_still_make_the_gate(self, tmp_path):
        # q derives exactly 2**22 loops of semi-axis near 0.3, whose small-loop rotation misses pi/2 by ~1e-2;
        # the matrix power of the loop holonomy keeps the 2**22-fold rotation of its angle to 1e-8
        q = 2.6490956e-6
        cfg = small_gate_config(params=dict(BASE_PARAMS["gate-synth"], q=q))
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        gate = json.loads((out / "gate.json").read_text())
        loop = gates.synth_phase_gate(q, n_samples=256, steps=1024).loop
        half_angle = 2**22 * np.angle(integrate_wilson(loop).matrix[0, 0])  # W = diag(e^{i h}, e^{-i h})
        assert gate["repetitions"] == 2**22
        assert gate["fidelity"] == pytest.approx(abs(math.cos(half_angle + math.pi / 4)), abs=1e-8)

    @pytest.mark.parametrize("q, message", [
        (1e200, "I2 integral c2 over the loop must be finite, got (nan+nanj)"),
        (1.7e308, "abelian angle eta over the loop must be finite, got inf"),
    ], ids=["1e+200", "1.7e+308"])
    def test_overflowing_coupling_exits_3_without_warning(self, tmp_path, capsys, q, message):
        # the I2 integral overflows; such a run once printed six RuntimeWarnings and "I2 = nan".
        # Pre-flight computes the sweep's rows, so validate fails as run does.
        cfg = {"schema_version": 1, "scenario": "trace-sweep", "seed": 0,
               "params": dict(BASE_PARAMS["trace-sweep"], q=q)}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", cfg_path]) == 3
            assert main(["run", cfg_path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == 2 * f"numerical failure: {message}\n"
        assert not out.exists()

    def test_large_i2_names_its_value_and_bound(self, tmp_path, capsys):
        cfg = {"schema_version": 1, "scenario": "trace-sweep", "seed": 0,
               "params": dict(BASE_PARAMS["trace-sweep"], q=1e150)}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: transverse coupling |I2| of the trace expansion must be at most 0.5, "
                       "got 2.0763581460955456e+294\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("scenario, message", TRIANGLE_AT_START)
    def test_triangle_broken_at_start_exits_3_under_run_and_validate(self, tmp_path, capsys, command, scenario,
                                                                     message):
        params = dict(BASE_PARAMS[scenario], drive=dict(TRIMER_DRIVE, d12=3.0))
        cfg = {"schema_version": 1, "scenario": scenario, "seed": 0, "params": params}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"numerical failure: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_triangle_broken_after_start_exits_3_under_run_and_validate(self, tmp_path, capsys, command):
        # validate reconstructs the trajectory too, so a triangle that breaks after t = 0 fails under both
        drive = {"d12": 2.2, "a12": 0.3, "omega12": 1.0, "d": 1.0, "a": 0.4, "omega": 3.0}
        cfg = {"schema_version": 1, "scenario": "trimer-sim", "seed": 0,
               "params": dict(BASE_PARAMS["trimer-sim"], drive=drive)}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 3
        message = "triangle inequality violated: bonds (2.48486, 1.23032, 1.23032) at sample 13"
        assert capsys.readouterr() == ("", f"numerical failure: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_phase_sweep_triangle_broken_after_start_exits_3_under_run_and_validate(self, tmp_path, capsys,
                                                                                     command):
        # validate runs the sweep too, so a phase whose triangle breaks after t = 0 fails under both commands;
        # at the grid's first phase, -pi, the bonds 1 +- 0.4 sin 3t outgrow 0.5 + 0.1 cos t
        drive = {"d12": 0.5, "a12": 0.1, "omega12": 1.0, "d": 1.0, "a": 0.4, "omega": 3.0}
        cfg = {"schema_version": 1, "scenario": "phase-sweep", "seed": 0,
               "params": dict(BASE_PARAMS["phase-sweep"], drive=drive)}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 3
        message = "phase sweep at phi = -3.14159: triangle inequality violated: bonds (0.596043, 1.29965, 0.700345)"
        assert capsys.readouterr() == ("", f"numerical failure: {message} at sample 69\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_phase_sweep_over_the_sample_budget_exits_2_before_any_phase(self, tmp_path, capsys, monkeypatch,
                                                                          command):
        # 43663 phases of 1537 samples is just over MAX_SAMPLES; 43662 would fit
        def no_phase(*args):
            raise AssertionError("a phase ran")

        monkeypatch.setattr("triholonomy.trimer._Frames.theta", no_phase)
        cfg = {"schema_version": 1, "scenario": "phase-sweep", "seed": 0,
               "params": dict(BASE_PARAMS["phase-sweep"], phi_count=43663)}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"validation error: phase grid of 43663 phases x 1537 samples exceeds the budget of {2**26} "
            "samples; lower 'phi_count'\n")
        assert not out.exists()

    def test_phase_grid_over_the_sample_budget_is_refused_before_it_is_built(self, tmp_path, capsys):
        # 2**22 phases: the grid alone would take 32 MiB, and the sweep's budget refuses it first
        cfg = {"schema_version": 1, "scenario": "phase-sweep", "seed": 0,
               "params": dict(BASE_PARAMS["phase-sweep"], phi_count=2**22)}
        path = write_config(tmp_path, cfg)
        tracemalloc.start()
        try:
            code = main(["validate", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            f"validation error: phase grid of {2**22} phases x 1537 samples exceeds the budget of {2**26} "
            "samples; lower 'phi_count'\n")
        assert peak < 1e6

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("override, cost", OVER_BUDGET_TRACE_SWEEPS, ids=["psi-count", "rotations"])
    def test_trace_sweep_over_the_sample_budget_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                                         command, override, cost):
        def no_loop(*args, **kwargs):
            raise AssertionError("a loop was built")

        monkeypatch.setattr("triholonomy.cli.make_ellipse_loop", no_loop)
        cfg = {"schema_version": 1, "scenario": "trace-sweep", "seed": 0,
               "params": dict(BASE_PARAMS["trace-sweep"], **override)}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"validation error: trace sweep of {cost} steps exceeds the budget of {2**26} samples; "
            "lower 'steps' or 'gauge_rotations', or list fewer 'psi_values'\n")
        assert not out.exists()

    @pytest.mark.parametrize("override", AT_BUDGET_TRACE_SWEEPS, ids=["psi-count", "rotations"])
    def test_trace_sweep_at_the_sample_budget_goes_on_to_its_loop(self, tmp_path, capsys, monkeypatch, override):
        def reached(*args, **kwargs):
            raise NumericalError("reached the loop")

        monkeypatch.setattr("triholonomy.cli.make_ellipse_loop", reached)
        cfg = {"schema_version": 1, "scenario": "trace-sweep", "seed": 0,
               "params": dict(BASE_PARAMS["trace-sweep"], **override)}
        assert main(["validate", write_config(tmp_path, cfg)]) == 3
        assert capsys.readouterr().err == "numerical failure: reached the loop\n"

    def test_demo_budget_reports_failed_window(self, tmp_path):
        cfg = {"schema_version": 1, "scenario": "demo-budget", "seed": 0,
               "params": {"platform": WINDOW_VIOLATION}}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        window = json.loads((out / "budget.json").read_text())["window"]
        assert window["passed"] is False and window["ratio_lower"] < window["factor"]

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("scenario, params, outcome", OVERFLOWING_INPUTS)
    def test_overflowing_input_exits_cleanly(self, tmp_path, capsys, command, scenario, params, outcome):
        cfg = {"schema_version": 1, "scenario": scenario, "seed": 0,
               "params": dict(BASE_PARAMS[scenario], **params)}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        code, phrase = outcome[command]
        start = time.perf_counter()
        assert main(argv) == code
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and phrase in err
        assert not out.exists() or not any(out.iterdir())

    def test_determinism_byte_identical(self, tmp_path):
        for cfg, data in ((small_gate_config(), "gate.json"), (small_trimer_config(), "trimer_sim.csv")):
            cfg_path = write_config(tmp_path, cfg)
            out1, out2 = tmp_path / data / "a", tmp_path / data / "b"
            assert main(["run", cfg_path, "--out", str(out1)]) == 0
            assert main(["run", cfg_path, "--out", str(out2)]) == 0
            assert (out1 / data).read_bytes() == (out2 / data).read_bytes()
            m1 = json.loads((out1 / "run_manifest.json").read_text())
            m2 = json.loads((out2 / "run_manifest.json").read_text())
            assert m1["outputs"] == m2["outputs"]  # identical checksums

    def test_linking_scenario_with_curve_files(self, tmp_path):
        names = write_hopf_curves(tmp_path)
        cfg = {
            "schema_version": 1,
            "scenario": "linking",
            "seed": 0,
            "params": {
                "curve_files": [str(tmp_path / name) for name in names],
                "charges": [3.0, 3.0],
                "k": 36,
            },
        }
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "linking.json").read_text())
        assert abs(payload["lk_matrix"][0][1]) == 1
        assert payload["cs_phase"] == pytest.approx(math.pi, abs=1e-9)

    def test_relative_curve_files_resolve_against_config_dir(self, tmp_path, monkeypatch):
        # run and validate both read relative curve_files next to the config
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        cfg = {
            "schema_version": 1,
            "scenario": "linking",
            "seed": 0,
            "params": {"curve_files": write_hopf_curves(cfg_dir, 129), "charges": [3.0, 3.0], "k": 36},
        }
        cfg_path = write_config(cfg_dir, cfg)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["validate", cfg_path]) == 0
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "linking.json").read_text())
        assert abs(payload["lk_matrix"][0][1]) == 1

    @pytest.mark.parametrize("radius", [1e-200, 1e-300])
    def test_tiny_hopf_pair_links(self, tmp_path, capsys, radius):
        # the squared diameter underflows; such a run once wrote Lk = 0 with exit 0
        params = {"hopf": {"radius1": radius, "radius2": radius, "segments": 64}}
        cfg = {"schema_version": 1, "scenario": "linking", "seed": 0, "params": params}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert json.loads((out / "linking.json").read_text())["lk_matrix"] == [[0, 1], [1, 0]]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("hopf", [{"radius1": 1e200}, {"radius2": 1e-300}, {"radius2": 1e-100}],
                             ids=["radius1-1e200", "radius2-1e-300", "radius2-1e-100"])
    def test_hopf_pair_on_a_vertex_exits_3_under_run_and_validate(self, tmp_path, capsys, hopf):
        # Circle 2 rounds onto circle 1's vertex at (radius1, 0, 0): its x coordinates all round to
        # 1e200, or in units of the diameter it shrinks to a point with zero-length segments.
        cfg = {"schema_version": 1, "scenario": "linking", "seed": 0, "params": {"hopf": dict(hopf, segments=64)}}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        for argv in (["validate", cfg_path], ["run", cfg_path, "--out", str(out)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 3
            assert capsys.readouterr().err == (
                "numerical failure: a crossing is degenerate in both fixed views; perturb the curves\n"
            )
        assert not out.exists()

    def test_same_curve_twice_exits_2_under_run_and_validate(self, tmp_path, capsys):
        # validate links each pair too, so it makes the close-approach check
        name = write_hopf_curves(tmp_path)[0]
        cfg = {"schema_version": 1, "scenario": "linking", "seed": 0, "params": {"curve_files": [name, name]}}
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        for argv in (["validate", cfg_path], ["run", cfg_path, "--out", str(out)]):
            assert main(argv) == 2
            assert "curves approach within 0.000e+00" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_overflowing_extent_exits_3_under_run_and_validate(self, tmp_path, capsys, command):
        # x spans +-1e308, so the curve's diameter overflows while its centroid and midpoints stay finite
        t = np.linspace(0, 2 * math.pi, 33)
        ring = np.stack([np.cos(t), np.sin(t), 0 * t], axis=1)
        wide = ring.copy()
        wide[8, 0], wide[24, 0] = 1e308, -1e308
        for name, pts in (("wide.csv", wide), ("ring.csv", ring + [1.0, 0.0, 0.0])):
            pts[-1] = pts[0]
            rows = [",".join(format(float(v), ".17g") for v in row) for row in pts]
            (tmp_path / name).write_text("\n".join(["x,y,z"] + rows))
        cfg = {"schema_version": 1, "scenario": "linking", "seed": 0,
               "params": {"curve_files": ["wide.csv", "ring.csv"]}}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        assert capsys.readouterr().err == (
            "numerical failure: larger curve diameter of the Gauss integral must be finite, got inf\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"hopf": {"segments": "abc"}}, "segments"),
            ({"hopf": {"radius1": "r"}}, "radius1"),
            ({"hopf": [1, 2]}, "hopf"),
            ({"charges": ["x", 1.0]}, "charges"),
            ({"slk": ["a", 0]}, "slk"),
            ({"k": 2.5}, "k"),
            ({"k": True}, "k"),
            ({"slk": [0.7, 0]}, "slk"),
            ({"curve_files": "nofile.csv"}, "curve_files"),
            ({"curve_files": ["bad.csv", "bad.csv"]}, "bad.csv"),
        ],
    )
    def test_bad_linking_input_exits_2(self, tmp_path, capsys, params, key):
        (tmp_path / "bad.csv").write_text("x,y,z\na,b,c\n")
        cfg = {"schema_version": 1, "scenario": "linking", "seed": 0, "params": params}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_curve_point_exits_2_by_name(self, tmp_path, capsys, command, value):
        names = write_hopf_curves(tmp_path, 65)
        rows = (tmp_path / names[1]).read_text().split("\n")
        rows[9] = f"0.5,{value},0"
        (tmp_path / names[1]).write_text("\n".join(rows))
        cfg = {"schema_version": 1, "scenario": "linking", "seed": 0, "params": {"curve_files": names}}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "validation error: non-finite curve points\n")
        assert not out.exists()

    @pytest.mark.parametrize("action", ["always", "error"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("text", ["", "x,y,z\n", "x,y,z", "x,y,z\n\n  \n"],
                             ids=["empty", "header", "header-unterminated", "blank-rows"])
    def test_curve_file_without_data_rows_exits_2_by_name(self, tmp_path, capsys, action, command, text):
        # numpy's "loadtxt: input contained no data" UserWarning once came first, and a traceback under
        # warnings as errors; the file is read once
        (tmp_path / "empty.csv").write_text(text)
        names = ["empty.csv", write_hopf_curves(tmp_path)[1]]
        cfg = {"schema_version": 1, "scenario": "linking", "seed": 0, "params": {"curve_files": names}}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert main(argv) == 2
        assert not caught
        message = f"curve file {tmp_path / 'empty.csv'} has no data row below its header"
        assert capsys.readouterr() == ("", f"validation error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("scenario, override, key", BAD_SCENARIO_INPUTS)
    def test_bad_scenario_input_exits_2(self, tmp_path, capsys, scenario, override, key):
        params = dict(BASE_PARAMS[scenario], **override)
        cfg = {"schema_version": 1, "scenario": scenario, "seed": 0, "params": params}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, small_gate_config())
        target = tmp_path / "envout"
        monkeypatch.setenv("TRIHOLONOMY_OUTDIR", str(target))
        assert main(["run", cfg_path]) == 0
        assert (target / "gate.json").exists()

    @pytest.mark.parametrize("name, source", UNUSABLE_OUTPUT_DIRS)
    def test_unusable_output_dir_exits_2(self, tmp_path, capsys, monkeypatch, source, name):
        (tmp_path / "file").write_text("kept")
        (tmp_path / "dangling").symlink_to(tmp_path / "missing")
        outdir = str(tmp_path / name)
        monkeypatch.delenv("TRIHOLONOMY_OUTDIR", raising=False)
        if source == "TRIHOLONOMY_OUTDIR":
            monkeypatch.setenv(source, outdir)
        cfg = small_gate_config(output_dir=outdir) if source == "output_dir" else small_gate_config()
        argv = ["run", write_config(tmp_path, cfg)] + (["--out", outdir] if source == "--out" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        if source == "output_dir" and "\0" in name:  # the config's root table refuses it before any write
            assert err == (
                f"validation error: config: parameter 'output_dir' must be free of NUL bytes, got {outdir!r}\n"
            )
        else:
            assert err.startswith(f"validation error: cannot use output directory {outdir}: ")
        assert err.count("\n") == 1
        assert (tmp_path / "file").read_text() == "kept"

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_string_output_dir_exits_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert main([command, write_config(tmp_path, small_gate_config(output_dir=5))]) == 2
        assert capsys.readouterr().err == "validation error: config: parameter 'output_dir' has wrong type\n"
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("scenario, override", UNRESOLVED_ELLIPSES)
    def test_unresolved_ellipse_exits_2(self, tmp_path, capsys, scenario, override):
        cfg = {"schema_version": 1, "scenario": scenario, "seed": 0,
               "params": dict(BASE_PARAMS[scenario], **override)}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert "semi-axis a is lost to rounding" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "axes, message",
        [
            ({"a": 2.5}, "ellipse reaches within 1e-6 of a pole"),
            ({"a": 1e200}, "ellipse reaches within 1e-6 of a pole"),
            # b >= pi at theta0 = pi/2 winds the azimuth; 1e10 once aliased into a CSV with exit 0
            ({"b": 1e10}, "ellipse azimuth semi-axis b / sin theta0 = 1e+10 is not below pi"),
            ({"b": 1e200}, "ellipse azimuth semi-axis b / sin theta0 = 1e+200 is not below pi"),
        ],
        ids=["2.5", "1e+200", "b=1e+10", "b=1e+200"],
    )
    def test_refused_ellipse_prints_no_warning(self, tmp_path, capsys, command, axes, message):
        # the small-loop warning is for a loop that is kept; this one is refused
        cfg = {"schema_version": 1, "scenario": "trace-sweep", "seed": 0,
               "params": dict(BASE_PARAMS["trace-sweep"], **axes)}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "params, angle, code",
        [
            ({"q": -1.0}, None, 2),
            ({"target": "hadamard"}, math.pi / 2 + 2e-6, 3),
            ({"target": "hadamard"}, math.nan, 3),
        ],
        ids=["bad-q", "missed-angle", "nan-angle"],
    )
    def test_failed_run_leaves_no_output_dir(self, tmp_path, capsys, monkeypatch, params, angle, code):
        if angle is not None:
            monkeypatch.setattr(gates, "rotation_angle", lambda line: angle)
        cfg = small_gate_config(params=dict(BASE_PARAMS["gate-synth"], **params))
        out = tmp_path / "new" / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("validation error" if code == 2 else "numerical failure")
        assert not out.exists() and not out.parent.exists()

    @pytest.mark.parametrize(
        "scenario, name", [("gate-synth", "gate.json"), ("ramsey", "fringe.csv"), ("ramsey", "ramsey.json")]
    )
    def test_output_name_taken_by_a_directory_exits_2(self, tmp_path, capsys, scenario, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = {"schema_version": 1, "scenario": scenario, "seed": 0, "params": BASE_PARAMS[scenario]}
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: cannot use output directory {out}: ")
        assert err.count("\n") == 1
        assert os.listdir(out) == [name] and os.listdir(out / name) == []

    @pytest.mark.parametrize(
        "error, message",
        [
            (OSError(28, "No space left on device"), "cannot use output directory {out}: No space left on device"),
            (MemoryError(), "out of memory; lower the sample counts"),
        ],
        ids=["oserror", "memoryerror"],
    )
    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch, error, message):
        # ramsey writes fringe.csv, then ramsey.json, which fails here once its partial file exists
        def write_then_fail(path, payload):
            _write_json(path, payload)
            raise error

        monkeypatch.setattr("triholonomy.cli._write_json", write_then_fail)
        cfg = {"schema_version": 1, "scenario": "ramsey", "seed": 0, "params": BASE_PARAMS["ramsey"]}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"validation error: {message.format(out=out)}\n"
        assert os.listdir(out) == []

    def test_trace_sweep_scenario(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": "trace-sweep",
            "seed": 0,
            "params": {"q": 2.0, "a": 0.2, "b": 0.2, "psi_values": [0.05], "steps": 2048, "samples": 512},
        }
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        rows = (out / "trace_sweep.csv").read_text().splitlines()
        assert rows[0] == "psi_abs,trace_direct,trace_order2,trace_order4,i2,i4"
        direct, order2 = (float(x) for x in rows[1].split(",")[1:3])
        assert abs(direct - order2) < 1e-2

    def test_trace_sweep_order2_is_the_order2_expansion(self, tmp_path):
        # trace_order2 is derived from the order-4 expansion's I2: the bits of an order-2 call
        params = {"q": 2.0, "a": 0.2, "b": 0.2, "psi_values": [0.025, 0.05, 0.1], "steps": 2048,
                  "samples": 512}
        cfg = {"schema_version": 1, "scenario": "trace-sweep", "seed": 0, "params": params}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        rows = [row.split(",") for row in (out / "trace_sweep.csv").read_text().splitlines()[1:]]
        shape = make_ellipse_loop(math.pi / 2, 0.2, 0.2, 512)
        s_mid, _ = midpoint_grid(2048)
        base = HolonomyLoop(shape, charge=2.0, steps=2048).sample(s_mid)
        for row, psi_abs in zip(rows, params["psi_values"], strict=True):
            c, j = eigenframe_rate_samples(base._replace(psi=np.full(2048, complex(psi_abs))), 2.0)
            assert row[2] == format(trace_expansion_from_rates(c, j, 2).trace_estimate, ".17g")

    def test_trace_sweep_direct_is_the_loop_transport(self, tmp_path):
        # trace_direct carries the bits of integrate_wilson on the pinned loop at constant psi; at psi = 0 both
        # take the one-factor shortcut of wilson_from_samples
        params = {"q": 2.5, "theta0": 1.2, "a": 0.2, "b": 0.15, "psi_values": [0.0, 0.03, 0.06, 0.09],
                  "steps": 2048, "samples": 512}
        cfg = {"schema_version": 1, "scenario": "trace-sweep", "seed": 0, "params": params}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        rows = [row.split(",") for row in (out / "trace_sweep.csv").read_text().splitlines()[1:]]
        shape = make_ellipse_loop(1.2, 0.2, 0.15, 512)
        for row, psi_abs in zip(rows, params["psi_values"], strict=True):
            loop = HolonomyLoop(shape, BlochField.pinned(), ControlField.constant(psi_abs), 2.5, 2048)
            assert row[1] == format(integrate_wilson(loop).trace, ".17g")

    def test_trace_sweep_seeded_gauge_check(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": "trace-sweep",
            "seed": 7,
            "params": {
                "q": 2.0, "a": 0.2, "b": 0.2, "psi_values": [0.05],
                "steps": 2048, "samples": 512, "gauge_rotations": 5,
            },
        }
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        check = json.loads((out / "gauge_check.json").read_text())
        assert check["seed"] == 7 and check["rotations"] == 5
        assert check["worst_trace_shift"] < 1e-7
        # the config's seed is recorded and reproducible
        out2 = tmp_path / "out2"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out2)]) == 0
        assert (out / "gauge_check.json").read_bytes() == (out2 / "gauge_check.json").read_bytes()

    def test_phase_sweep_periods_reaches_no_output_and_checks_nothing(self):
        # the sweep builds one common period; 2**26 periods of the 1:3 drive were once refused as a time grid
        cfgs = [{"schema_version": 1, "scenario": "phase-sweep", "seed": 0,
                 "params": dict(BASE_PARAMS["phase-sweep"], periods=periods)} for periods in (1, 2**26)]
        (_, columns), (_, columns_max) = (run_scenario(cfg, CONFIG_DIR)[1]["phase_sweep.csv"] for cfg in cfgs)
        assert np.array(columns).tobytes() == np.array(columns_max).tobytes()

    def test_phase_sweep_scenario_with_threads(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": "phase-sweep",
            "seed": 0,
            "params": {
                "drive": {"d12": 1.1, "a12": 0.2, "omega12": 1.0, "d": 1.0, "a": 0.15, "omega": 3.0},
                "masses": [2.1, 2.1, 4.7],
                "phi_count": 5,  # -pi, -pi/2, 0, pi/2, pi
                "periods": 2,
            },
        }
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out), "--threads", "2"]) == 0
        rows = (out / "phase_sweep.csv").read_text().splitlines()
        assert rows[0] == "phi,mean_angular_velocity"
        rates = [float(r.split(",")[1]) for r in rows[1:]]
        assert abs(rates[2]) < 1e-6 * max(abs(rates[1]), abs(rates[3]))

    def test_demo_budget_and_ramsey_scenarios(self, tmp_path):
        budget_cfg = {
            "schema_version": 1,
            "scenario": "demo-budget",
            "seed": 0,
            "params": {"platform": {"n_rep": 5}},
        }
        out1 = tmp_path / "budget"
        assert main(["run", write_config(tmp_path, budget_cfg, "b.json"), "--out", str(out1)]) == 0
        payload = json.loads((out1 / "budget.json").read_text())
        assert payload["window"]["passed"]
        ramsey_cfg = {
            "schema_version": 1,
            "scenario": "ramsey",
            "seed": 0,
            "params": {"platform": {}, "q": 400.0, "samples": 512, "steps": 2048},
        }
        out2 = tmp_path / "ramsey"
        assert main(["run", write_config(tmp_path, ramsey_cfg, "r.json"), "--out", str(out2)]) == 0
        recon = json.loads((out2 / "ramsey.json").read_text())
        assert recon["reconstructed_trace"] == pytest.approx(math.sqrt(2), abs=1e-3)
        fringe = (out2 / "fringe.csv").read_text().splitlines()
        assert fringe[0].startswith("scan_phase,population_prep0")


class TestValidate:
    def test_demo_budget_passes_with_ratios(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1,
            "scenario": "demo-budget",
            "seed": 0,
            "params": {"platform": {"t_loop": 1e-6}},
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["validate", cfg_path]) == 0
        text = capsys.readouterr().out
        assert "pass" in text and "window" in text

    def test_amplitude_bound_rejected(self, tmp_path, capsys):
        # no output reads a drive amplitude, phase or bond length, so the platform has none
        for platform in ({"epsilon": 0.9}, {"epsilon": 0.3}, {"epsilon": 0.49, "phi": -3.1},
                         {"phi": 0.4}, {"r0": 1e-7}):
            cfg = {"schema_version": 1, "scenario": "demo-budget", "seed": 0,
                   "params": {"platform": platform}}
            out = tmp_path / "out"
            for argv in (["validate", write_config(tmp_path, cfg)],
                         ["run", write_config(tmp_path, cfg), "--out", str(out)]):
                assert main(argv) == 2
                assert capsys.readouterr().err == (
                    "validation error: demo-budget params platform: "
                    f"unknown parameter {next(iter(platform))!r}\n"
                )
                assert not out.exists()

    def test_window_violation_reported_with_named_condition(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1,
            "scenario": "demo-budget",
            "seed": 0,
            "params": {
                "platform": {
                    "e_e1": 2 * math.pi * 1.0e6,
                    "e_e2": 2 * math.pi * 14.0e6,
                    "e_a": 2 * math.pi * 18.0e6,
                }
            },
        }
        # demo-budget reports a failed window, as budget.json does, under validate as under run
        assert main(["validate", write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr() == (
            "scenario: demo-budget\n"
            "adiabatic window FAIL, need both ratios >= 10: (1/T)/splitting = 0.0122, gap*T = 66\n"
            "pass\n", "")

    def test_missing_curve_file_rejected(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "scenario": "linking",
            "seed": 0,
            "params": {"curve_files": ["nowhere.csv"], "charges": [1, 1], "k": 4},
        }
        assert main(["validate", write_config(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_never_writes_outputs(self, tmp_path, monkeypatch, name):
        # validate runs the whole scenario; the working directory and the output directory stay empty
        cwd, outdir = tmp_path / "cwd", tmp_path / "outdir"
        cwd.mkdir()
        outdir.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("TRIHOLONOMY_OUTDIR", str(outdir))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["validate", os.path.join(os.path.abspath(CONFIG_DIR), name)]) == 0
        assert list(cwd.iterdir()) == [] and list(outdir.iterdir()) == []

    @pytest.mark.parametrize("scenario, override, key", BAD_SCENARIO_INPUTS)
    def test_bad_scenario_input_exits_2(self, tmp_path, capsys, scenario, override, key):
        params = dict(BASE_PARAMS[scenario], **override)
        cfg = {"schema_version": 1, "scenario": scenario, "seed": 0, "params": params}
        assert main(["validate", write_config(tmp_path, cfg)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("scenario, override, top, phrase", PREFLIGHT_BUILDS, ids=[
        "gate-q", "hadamard-q", "ramsey-q", "trace-ab", "trace-theta0", "nul-output-dir", "phi-values",
        "charges", "slk", "two-column-curve", "far-curves", "hopf-radius2", "hopf-radius2-far",
        "hopf-radius1-huge", "gate-q-tiny", "gate-q-small", "gate-n-rep", "gate-q-subnormal",
        "ramsey-q-subnormal", "trimer-phi13", "phase-sweep-phi23",
    ])
    def test_preflight_builds_what_run_builds(self, tmp_path, capsys, command, scenario, override, top,
                                              phrase):
        (tmp_path / "two.csv").write_text("x,y\n" + "\n".join(f"{i},{i * i}" for i in range(20)))
        write_hopf_curves(tmp_path, scale=6e307, names=("far1.csv", "far2.csv"))
        params = dict(BASE_PARAMS[scenario], **override)
        cfg = dict({"schema_version": 1, "scenario": scenario, "seed": 0, "params": params}, **top)
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and phrase in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("seed", [True, -1, "0", 2.5, 2**64])
    def test_bad_seed_exits_2(self, tmp_path, capsys, command, seed):
        cfg = {"schema_version": 1, "scenario": "trace-sweep", "seed": seed,
               "params": dict(BASE_PARAMS["trace-sweep"], gauge_rotations=1)}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("scenario, path, value", RETIRED_KEYS,
                             ids=[f"{scenario}-{'.'.join(path)}" for scenario, path, _ in RETIRED_KEYS])
    def test_retired_key_exits_2_by_name(self, tmp_path, capsys, command, scenario, path, value):
        cfg = with_values(scenario, [(path, value)])
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        where = " ".join([f"{scenario} params", *path[:-1]])
        assert capsys.readouterr() == ("", f"validation error: {where}: unknown parameter {path[-1]!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("cfg, message", BAD_ROOTS, ids=[
        "scenario-list", "scenario-object", "empty", "unknown-key", "nan-note", "schema-true", "schema-float",
        "schema-2", "scenario-unknown", "params-list", "root-array", "root-null",
    ])
    def test_bad_config_root_exits_2_by_name(self, tmp_path, capsys, command, cfg, message):
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"validation error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("name, reason", [("nowhere.json", "No such file or directory"),
                                              ("folder", "Is a directory")])
    def test_config_that_cannot_be_opened_exits_2(self, tmp_path, capsys, command, name, reason):
        (tmp_path / "folder").mkdir()
        path, out = tmp_path / name, tmp_path / "out"
        argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("validation error: cannot read config: [Errno ")
        assert err.endswith(f"] {reason}: {str(path)!r}\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("name", sorted(UNREADABLE_CONFIGS))
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command, name):
        path = tmp_path / "config.json"
        path.write_bytes(UNREADABLE_CONFIGS[name])
        out = tmp_path / "out"
        argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: malformed JSON config: ") and err.count("\n") == 1
        assert not out.exists()

    def test_utf8_bom_is_accepted(self, tmp_path):
        # the file is read as bytes, and json detects the encoding, a leading UTF-8 BOM included
        path = tmp_path / "config.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(small_gate_config()).encode())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_seed_flag_exits_2_by_name(self, tmp_path, capsys, command):
        # the config's seed sets the seed; there is no second way
        cfg = {"schema_version": 1, "scenario": "trace-sweep", "seed": 0,
               "params": dict(BASE_PARAMS["trace-sweep"], gauge_rotations=1)}
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, cfg), "--seed", "7"]
        argv += ["--out", str(out)] if command == "run" else []
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not out.exists()


def test_readme_parameter_table_names_exactly_each_scenario_table():
    # column 2 of README's scenario-parameter table backticks each key; a row without a scenario continues
    # the one above, so the docs and the tables cannot drift apart
    rows = open(README).read().split("| scenario | parameter |", 1)[1].splitlines()[2:]
    named, scenario = {}, None
    for row in itertools.takewhile(lambda line: line.startswith("|"), rows):
        cells = row.split("|")
        scenario = cells[1].strip().strip("`") or scenario
        named.setdefault(scenario, set()).update(re.findall(r"`([^`]+)`", cells[2]))
    assert named == {name: set(table) for name, (table, _) in SCENARIOS.items()}


WINDOW_PASS = "adiabatic window pass: (1/T)/splitting = 15.9, gap*T = 62.8\n"
DRIVE_OK = "drive ok: common period 6.28319\n"
# validate's exact report on each shipped config
VALIDATE_REPORTS = {
    "demo_budget.json": "scenario: demo-budget\n" + WINDOW_PASS + "pass\n",
    "gate_hadamard.json": "scenario: gate-synth\npass\n",
    "gate_pi2.json": "scenario: gate-synth\npass\n",
    "linking_hopf.json": "scenario: linking\n2 curves read\npass\n",
    "phase_sweep.json": "scenario: phase-sweep\n" + DRIVE_OK + "pass\n",
    "ramsey.json": "scenario: ramsey\n" + WINDOW_PASS + "pass\n",
    "trace_sweep.json": "scenario: trace-sweep\npass\n",
    "trimer_reference.json": "scenario: trimer-sim\n" + DRIVE_OK + "pass\n",
}


class TestShippedConfigs:
    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_all_shipped_configs_validate(self, name):
        assert main(["validate", os.path.join(CONFIG_DIR, name)]) == 0

    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_validate_report_is_unchanged(self, capsys, name):
        assert main(["validate", os.path.join(CONFIG_DIR, name)]) == 0
        assert capsys.readouterr() == (VALIDATE_REPORTS[name], "")

    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_run_leaves_only_checksummed_final_files(self, tmp_path, name):
        # the manifest's checksums are those of the bytes on disk; files keep mode 0644 under umask 022
        umask = os.umask(0o022)
        try:
            assert main(["run", os.path.join(CONFIG_DIR, name), "--out", str(tmp_path)]) == 0
        finally:
            os.umask(umask)
        outputs = json.loads((tmp_path / "run_manifest.json").read_text())["outputs"]
        assert sorted(os.listdir(tmp_path)) == sorted([*outputs, "run_manifest.json"])
        assert outputs == {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in outputs}
        assert {stat.S_IMODE(f.stat().st_mode) for f in tmp_path.iterdir()} == {0o644}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "triholonomy" in capsys.readouterr().out



def test_cli_import_does_not_load_scipy(tmp_path):
    # neither the import nor a Hadamard calibration run loads any scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(triholonomy.__file__)))
    cfg = write_config(tmp_path, small_gate_config(
        params={"q": 50.0, "target": "hadamard", "samples": 256, "steps": 1024}))
    scipy_modules = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    code = (
        f"import sys, triholonomy.cli; print({scipy_modules}); "
        f"rc = triholonomy.cli.main(['run', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]); "
        f"print(rc, {scipy_modules})"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "[]" and lines[-1] == "0 []"
    assert (tmp_path / "out" / "gate.json").exists()


def test_out_of_memory_exits_2_without_traceback(tmp_path):
    # 2**26 samples pass the budget but need gigabytes; the child may map only 1.5 GB
    resource = pytest.importorskip("resource")
    params = dict(BASE_PARAMS["trimer-sim"], periods=8192, steps_per_period=8192)
    cfg = write_config(tmp_path, {"schema_version": 1, "scenario": "trimer-sim", "seed": 0, "params": params})
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(triholonomy.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    limit = 1_500_000_000

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    result = subprocess.run(
        [sys.executable, "-m", "triholonomy.cli", "run", cfg, "--out", str(out)],
        env=env, capture_output=True, text=True, preexec_fn=cap_address_space,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "validation error: out of memory" in result.stderr
    assert not out.exists() or not any(out.iterdir())


def write_csv_per_value(path, header, columns):
    """Reference writer: one ``format(float(x), ".17g")`` call per value."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(columns[0])):
            fh.write(",".join(format(float(col[i]), ".17g") for col in columns) + "\n")


# 1024 and 2051 rows were one block and two blocks plus 3 at the former 1024-row block size; they stay as
# partial-block cases
@pytest.mark.parametrize("rows", [0, 1, 1024, 2051, _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS + 3])
def test_write_csv_matches_per_value_format(tmp_path, rows):
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 0.1])
    rng = np.random.default_rng(rows)
    columns = [
        np.resize(specials, rows),
        rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows),
        np.arange(rows) - rows // 2,  # an int column
    ]
    _write_csv(str(tmp_path / "block.csv"), ["a", "b", "c"], columns)
    write_csv_per_value(str(tmp_path / "value.csv"), ["a", "b", "c"], columns)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "value.csv").read_bytes()


def format_g17(block):
    """The block's rows from ``_g17_slots``, joined by "," and "\\n" as ``_write_csv`` joins them."""
    rows, cols = block.shape
    buf = _g17_slots(block.ravel()).reshape(rows, cols, 25)
    buf[:, :, 24] = [44] * (cols - 1) + [10]
    return buf.tobytes().translate(None, b"\0")


def repeating_columns(case):
    """The columns of one case; a column shorter than the longest is one period of the table."""
    rng = np.random.default_rng(len(case))
    n = 5 * _CSV_BLOCK_ROWS + 7
    noise = rng.normal(size=n)  # repeats nowhere
    if case.startswith("length "):
        length = int(case.split()[1])
        return [rng.normal(size=length), noise, np.arange(length) - 3.5]
    if case == "rows - 1":  # only the last row repeats, as the first
        return [noise, rng.normal(size=n - 1)]
    if case == "constant":
        return [np.full(1, 0.1), np.zeros(1), noise]
    if case == "non-finite":
        return [np.array([np.nan, np.inf, -np.inf, 1.0, -0.0, 0.0, 5e-324, 1e300]), noise, np.array([np.nan, 2.5])]
    if case == "every column":  # but the longest: two periods, one below and one within a block
        return [np.array([1.0, 2.0, 3.0]), rng.normal(size=1500), noise]
    assert case == "below the fast path"
    return [np.array([0.25, -1e-7]), np.linspace(0.0, 1.0, 60), np.full(1, -3.0)]


def tiled(columns):
    """Each column repeated to the longest's rows, as ``_write_csv`` reads a period."""
    n = max(map(len, columns))
    return [np.resize(col, n) for col in columns]


@pytest.mark.parametrize("case", [
    "length 3", "length 256", "length 1000", "length 1536", "length 2048", "rows - 1", "constant", "non-finite",
    "every column", "below the fast path",
])
def test_write_csv_matches_per_value_format_on_repeating_columns(tmp_path, case):
    # periods below, at a divisor of, and above _CSV_BLOCK_ROWS, ones that divide no block, and one row short
    columns = repeating_columns(case)
    header = [f"c{j}" for j in range(len(columns))]
    if case == "below the fast path":
        assert len(columns) * max(map(len, columns)) < _CSV_FAST_MIN_CELLS
    _write_csv(str(tmp_path / "block.csv"), header, columns)
    write_csv_per_value(str(tmp_path / "value.csv"), header, tiled(columns))
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "value.csv").read_bytes()


def test_write_csv_reads_a_repeat_of_every_row_as_none(tmp_path, monkeypatch):
    # a trajectory that does not repeat passes its bonds at every row: a column as long as the table is
    # formatted per block, with the others, and not held as text for the whole file first
    calls = []
    monkeypatch.setattr("triholonomy.cli._g17_slots", lambda x: calls.append(x.size) or _g17_slots(x))
    columns = [np.random.default_rng(3).normal(size=3 * _CSV_BLOCK_ROWS + 5), np.arange(3 * _CSV_BLOCK_ROWS + 5)]
    _write_csv(str(tmp_path / "block.csv"), ["a", "b"], columns)
    write_csv_per_value(str(tmp_path / "value.csv"), ["a", "b"], columns)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "value.csv").read_bytes()
    assert calls == [2 * _CSV_BLOCK_ROWS] * 3 + [2 * 5]


def test_write_csv_formats_the_rows_of_a_repeat_once(tmp_path, monkeypatch):
    # the two columns of L = 256 rows send those rows to the formatter once, in one batch; each block gathers
    # its rows k mod L from that text, and the column of every row is formatted per block
    calls = []
    monkeypatch.setattr("triholonomy.cli._g17_slots", lambda x: calls.append(x.size) or _g17_slots(x))
    columns = repeating_columns("length 256")
    assert [col.size for col in columns] == [256, 5 * _CSV_BLOCK_ROWS + 7, 256]
    _write_csv(str(tmp_path / "block.csv"), ["a", "b", "c"], columns)
    write_csv_per_value(str(tmp_path / "value.csv"), ["a", "b", "c"], tiled(columns))
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "value.csv").read_bytes()
    assert calls == [2 * 256] + [_CSV_BLOCK_ROWS] * 5 + [7]


def percent_g17(block):
    """Reference: the block's rows through one "%" operation."""
    rows, cols = block.shape
    return ((",".join(["%.17g"] * cols) + "\n") * rows % tuple(block.ravel().tolist())).encode()


def assert_g17_matches_percent(values, cols=4, rows_per_block=1 << 16):
    for block in np.array_split(values.reshape(-1, cols), max(1, len(values) // cols // rows_per_block)):
        assert format_g17(block) == percent_g17(block)


def test_format_g17_matches_percent_on_random_bit_patterns():
    # about a fifth of all doubles lie outside the digit path's range and go to "%"
    assert_g17_matches_percent(np.frombuffer(np.random.default_rng(17).bytes(8 * 3_000_000), np.float64))


def test_format_g17_matches_percent_over_the_digit_range():
    rng = np.random.default_rng(18)
    n = 1_000_000
    bits = rng.integers(0, 2**52, size=n, dtype=np.uint64)
    bits |= rng.integers(1023 - 831, 1023 + 832, size=n).astype(np.uint64) << np.uint64(52)  # 2**±831 ~ 1e±250
    bits |= rng.integers(0, 2, size=n).astype(np.uint64) << np.uint64(63)
    assert_g17_matches_percent(bits.view(np.float64))


def test_format_g17_matches_percent_on_edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = 99999999999999990.0
    values = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        [2.0**50 + 0.25, 2.0**50 + 0.75],  # exact ties
        [0.0, np.inf, np.nan, 5e-324, 1e-310, 2.2250738585072009e-308, np.finfo(float).max, 1e20],
        [near, np.nextafter(near, 0), np.nextafter(near, np.inf)],
    ])
    values = np.concatenate([values, -values])
    assert_g17_matches_percent(values, cols=1)
    assert_g17_matches_percent(values, cols=2)


@pytest.mark.parametrize(
    "rows, cols",
    [(0, 6), (1, 6), (_CSV_FAST_MIN_CELLS - 1, 1), (_CSV_FAST_MIN_CELLS, 1), (1024, 6), (1025, 6),
     (_CSV_BLOCK_ROWS, 6), (_CSV_BLOCK_ROWS + 1, 6)],
)
def test_format_g17_matches_percent_on_block_shapes(rows, cols):
    rng = np.random.default_rng(rows)
    values = rng.normal(size=rows * cols) * 10.0 ** rng.integers(-120, 120, size=rows * cols)
    values[::7] = np.resize([0.0, -0.0, np.nan, -np.inf, 1e300, 0.5], values[::7].size)
    block = values.reshape(rows, cols)
    assert format_g17(block) == percent_g17(block)


def test_format_g17_leaves_only_the_zeros_of_trimer_reference_to_percent():
    # a regression that sent every cell to "%" would keep the bytes and lose the speed
    cfg = load_config(os.path.join(CONFIG_DIR, "trimer_reference.json"))
    block = np.column_stack(tiled(run_scenario(cfg, CONFIG_DIR)[1]["trimer_sim.csv"][1]))
    left = np.setdiff1d(np.arange(block.size), _g17_digits(np.abs(block.ravel()))[0])
    assert left.size == 2 and (block.ravel()[left] == 0).all()
    assert format_g17(block) == percent_g17(block)


def trimer_sim_config(drive, periods, steps_per_period, masses=(2.1, 2.1, 4.7)):
    params = {"drive": drive, "masses": list(masses), "periods": periods, "steps_per_period": steps_per_period}
    return {"schema_version": 1, "scenario": "trimer-sim", "seed": 0, "params": params}


def trimer_sim_payload(drive, periods, steps_per_period):
    """The trimer-sim CSV (header, columns) of a drive table, as run_scenario returns it."""
    return run_scenario(trimer_sim_config(drive, periods, steps_per_period), CONFIG_DIR)[1]["trimer_sim.csv"]


class TestTrimerSimBonds:
    """The CSV's bond columns are the bonds the frames were built from: the n_P rows of one common period."""

    REFERENCE = {"d12": 1.1, "a12": 0.2, "omega12": 1.0, "d": 1.0, "a": 0.15, "omega": 3.0,
                 "phi13": math.pi / 4, "phi23": -math.pi / 4}

    @pytest.mark.parametrize("phases", [(math.pi / 4, -math.pi / 4), (math.pi / 3, -math.pi / 6), (0.0, 0.0)])
    @pytest.mark.parametrize("periods, steps_per_period", [(20, 1536), (48, 2048), (7, 256)])
    def test_bonds_repeat_every_period_near_the_full_grid(self, phases, periods, steps_per_period):
        # at most 3.1e-14 from the bonds evaluated at every sample
        table = dict(self.REFERENCE, phi13=phases[0], phi23=phases[1])
        drive = BondDrive(**table)
        _, columns = trimer_sim_payload(table, periods, steps_per_period)
        t, *bonds = columns[:4]
        assert np.array(bonds).tobytes() == np.array(bond_lengths(t[:steps_per_period], drive)).tobytes()
        bonds = tiled([t, *bonds])[1:]
        for col, full in zip(bonds, bond_lengths(t, drive)):
            assert np.max(np.abs(col - full)) <= 1e-13
        traj = reconstruct_rotation(drive, [2.1, 2.1, 4.7], periods * drive.common_period(), t[1])
        x, y = _Frames(bonds[0], [2.1, 2.1, 4.7]).body(*bonds[1:])
        assert x.tobytes() == traj.x.tobytes() and y.tobytes() == traj.y.tobytes()

    def test_ratio_off_by_rounding_keeps_the_full_grid_bonds(self):
        # omega/omega12 = 3 (1 + 1e-12) passes common_period as 3, but the grid does not repeat
        table = dict(self.REFERENCE, omega=3.0 * (1 + 1e-12))
        _, columns = trimer_sim_payload(table, 4, 512)
        t, *bonds = columns[:4]
        assert [col.size for col in bonds] == [t.size] * 3  # every row: no period
        assert np.array(bonds).tobytes() == np.array(bond_lengths(t, BondDrive(**table))).tobytes()

    @pytest.mark.parametrize("omega", [3.0, 3.0 * (1 + 1e-12)])
    def test_written_csv_matches_per_value_format(self, tmp_path, omega):
        # the repeating reference drive, and a ratio off by rounding whose bonds do not repeat; one period
        # has no repeat on either
        table = dict(self.REFERENCE, omega=omega)
        for periods in (7, 1):
            out = tmp_path / f"out{periods}"
            with contextlib.redirect_stdout(io.StringIO()):
                cfg = write_config(tmp_path, trimer_sim_config(table, periods, 512))
                assert main(["run", cfg, "--out", str(out)]) == 0
            header, columns = trimer_sim_payload(table, periods, 512)
            write_csv_per_value(str(tmp_path / "value.csv"), header, tiled(columns))
            assert (out / "trimer_sim.csv").read_bytes() == (tmp_path / "value.csv").read_bytes()

    def test_irrational_frequency_ratio_keeps_the_full_grid_bonds(self, monkeypatch):
        # no common period: the scenario refuses such a drive, so common_period is stubbed to 2 pi (its
        # grid does not repeat), and the L_eff windows, which need closed shape loops, are stubbed out
        def no_windows(traj, period):
            return traj.times[:1], [0.0]

        monkeypatch.setattr("triholonomy.cli.effective_momentum_series", no_windows)
        monkeypatch.setattr(BondDrive, "common_period", lambda drive: 2 * math.pi)
        table = dict(self.REFERENCE, omega=3.0 * math.sqrt(2))
        _, columns = trimer_sim_payload(table, 4, 1024)
        t, *bonds = columns[:4]
        assert t.size == 4097 and [col.size for col in bonds] == [t.size] * 3
        assert np.array(bonds).tobytes() == np.array(bond_lengths(t, BondDrive(**table))).tobytes()


HOSTILE_VALUES = [
    "x", True, None, [], [1], {}, {"x": 1}, 0, -1, 2.5, math.nan, 10**12, 1e200, -1e200, 1e-300,
]


def table_paths(table, prefix=()):
    """Every parameter of a scenario table as a key path; nested tables add their own keys."""
    for key, param in table.items():
        yield prefix + (key,)
        if isinstance(param.kind, dict):
            yield from table_paths(param.kind, prefix + (key,))


def with_values(scenario, values):
    """A config of ``scenario``'s small base params with each (key path, value) of ``values`` set."""
    params = copy.deepcopy(BASE_PARAMS[scenario])
    for path, value in values:
        target = params
        for key in path[:-1]:
            if not isinstance(target.get(key), dict):
                target[key] = {}
            target = target[key]
        target[path[-1]] = copy.deepcopy(value)
    return {"schema_version": 1, "scenario": scenario, "seed": 0, "params": params}


@st.composite
def hostile_configs(draw):
    """A small base config with one or two table parameters replaced by hostile values."""
    scenario = draw(st.sampled_from(sorted(BASE_PARAMS)))
    paths = list(table_paths(SCENARIOS[scenario][0]))
    chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True))
    return with_values(scenario, [(path, draw(st.sampled_from(HOSTILE_VALUES))) for path in chosen])


def exit_codes(cfg, tmp) -> tuple[int, int]:
    """The exit codes of ``validate`` and ``run`` on ``cfg``, written into the directory ``tmp``."""
    path = os.path.join(tmp, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        return main(["validate", path]), main(["run", path, "--out", os.path.join(tmp, "out")])


@settings(max_examples=200, deadline=None)
@given(hostile_configs())
def test_hostile_parameters_exit_cleanly(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        validated, ran = exit_codes(cfg, tmp)
    assert validated in (0, 2, 3) and validated == ran


HEADER_ONLY = "header_only.csv"  # a curve file that test_validate_exits_2_exactly_when_run_does writes


def refused_configs():
    """Configs outside the table paths that both commands refuse (exit 2): phases set on the phase-sweep
    drive, the retired keys, the trace sweeps just over the sample budget, the trimer scales that overflow
    (two keys or more at once) and a curve file with a header and no data row (``HEADER_ONLY``)."""
    phases = [with_values("phase-sweep", [(("drive", key), value)])
              for key in ("phi13", "phi23") for value in HOSTILE_VALUES]
    retired = [with_values(scenario, [(path, value)]) for scenario, path, value in RETIRED_KEYS]
    trace = [with_values("trace-sweep", [((key,), value) for key, value in override.items()])
             for override, _ in OVER_BUDGET_TRACE_SWEEPS]
    scales = [with_values(scenario, [*((("drive", key), value) for key, value in lengths.items()),
                                     (("masses",), masses)])
              for lengths, masses in SCALE_PROBES.values() for scenario in ("trimer-sim", "phase-sweep")]
    header = [with_values("linking", [(("curve_files",), [HEADER_ONLY, HEADER_ONLY])])]
    return phases + retired + trace + scales + header


def root_configs():
    """The demo-budget base config with one root key replaced by each hostile value."""
    base = with_values("demo-budget", [])
    return [dict(base, **{key: copy.deepcopy(value)}) for key in _ROOT for value in HOSTILE_VALUES]


def test_validate_exits_2_exactly_when_run_does(tmp_path):
    # every base config with one table parameter replaced by one hostile value, under both commands,
    # then one base config with each root key replaced so, then the refused configs no table path reaches
    grid = [(with_values(scenario, [(path, value)]), False)
            for scenario in sorted(BASE_PARAMS)
            for path in table_paths(SCENARIOS[scenario][0])
            for value in HOSTILE_VALUES]
    grid += [(cfg, False) for cfg in root_configs()]
    grid += [(cfg, True) for cfg in refused_configs()]
    assert len(grid) == 915 + 75 + 53
    (tmp_path / HEADER_ONLY).write_text("x,y,z\n")
    for cfg, refused in grid:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            validated, ran = exit_codes(cfg, str(tmp_path))
        assert validated in (0, 2, 3) and validated == ran, (cfg, validated, ran)
        assert validated == 2 or not refused, cfg
        # the small-loop UserWarning is allowed
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], cfg
