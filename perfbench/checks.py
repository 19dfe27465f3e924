"""Output checks: each run's values against the reference at a stated tolerance.

``extract`` reads the values a scenario run wrote; ``check`` compares them
with the values recorded in ``reference.json`` (gates, trimer) or with the
exact answer a linking slot carries.  The comparison is by value, not by
bytes, so a change that moves the last bits of a result still passes while
one that moves it beyond the tolerance fails.  The tolerances follow the
acceptance criteria of the test suite.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

EXACT = 0.0
# Two expressions of one transport agree to 1e-8 (criterion 05, gauge invariance).
HOLONOMY_TOL = 1e-8
# synth_hadamard_gate calibrates |psi| with xtol 1e-6.
CALIBRATION_TOL = 1e-6
# A calibration within its xtol moves the gate itself; criterion 02 allows 1 - F <= 1e-3.
GATE_TOL = 1e-3
# Drive kinematics (time grid, bond lengths) are closed-form per sample.
KINEMATIC_TOL = 1e-12
# The topological phase is exact to 1e-12 (criterion 07).
PHASE_TOL = 1e-12

TRIMER_SAMPLE_ROWS = 9


def _tolerances(config: dict) -> dict:
    scenario = config["scenario"]
    if scenario == "gate-synth":
        hadamard = config["params"]["target"] == "hadamard"
        gate = GATE_TOL if hadamard else HOLONOMY_TOL
        return {"matrix": gate, "fidelity": gate, "repetitions": EXACT,
                "residual_abelian": HOLONOMY_TOL,
                "calibrated_control": CALIBRATION_TOL if hadamard else EXACT}
    if scenario == "trace-sweep":
        return {"*": HOLONOMY_TOL}
    if scenario == "ramsey":
        return {"*": HOLONOMY_TOL, "scan_phase": KINEMATIC_TOL}
    if scenario == "trimer-sim":
        return {"rows": EXACT, "theta": HOLONOMY_TOL, "L_eff": HOLONOMY_TOL, "*": KINEMATIC_TOL}
    if scenario == "phase-sweep":
        return {"phi": KINEMATIC_TOL, "mean_angular_velocity": HOLONOMY_TOL}
    if scenario == "linking":
        return {"lk_matrix": EXACT, "cs_phase": PHASE_TOL}
    raise ValueError(f"no checks for scenario {scenario!r}")


def _columns(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(rows[0])}


def _pairs(matrix) -> list[float]:
    return [x for row in matrix for entry in row for x in entry]


def extract(config: dict, outdir: Path) -> dict[str, list[float]]:
    """The checked values of one run, by name, from the files it wrote."""
    outdir = Path(outdir)
    scenario = config["scenario"]
    if scenario == "gate-synth":
        gate = json.loads((outdir / "gate.json").read_text())
        return {"matrix": _pairs(gate["matrix"]), "fidelity": [gate["fidelity"]],
                "repetitions": [gate["repetitions"]],
                "residual_abelian": _pairs(gate["residual_abelian"]),
                "calibrated_control": [gate["calibrated_control"]]}
    if scenario == "trace-sweep":
        values = _columns(outdir / "trace_sweep.csv")
        gauge = json.loads((outdir / "gauge_check.json").read_text())
        values["worst_trace_shift"] = [gauge["worst_trace_shift"]]
        values["base_trace"] = [gauge["base_trace"]]
        return values
    if scenario == "ramsey":
        values = _columns(outdir / "fringe.csv")
        ramsey = json.loads((outdir / "ramsey.json").read_text())
        for name in ("reconstructed_trace", "doubled_phase", "geometric_phase", "contrast"):
            values[name] = [ramsey[name]]
        return values
    if scenario == "trimer-sim":
        columns = _columns(outdir / "trimer_sim.csv")
        n = len(columns["t"])
        rows = sorted({round(i * (n - 1) / (TRIMER_SAMPLE_ROWS - 1)) for i in range(TRIMER_SAMPLE_ROWS)})
        values = {"rows": [n]}
        for name, col in columns.items():
            values[name] = [col[i] for i in rows] + [math.fsum(col) / n]
        return values
    if scenario == "phase-sweep":
        return _columns(outdir / "phase_sweep.csv")
    if scenario == "linking":
        link = json.loads((outdir / "linking.json").read_text())
        return {"lk_matrix": [x for row in link["lk_matrix"] for x in row], "cs_phase": [link["cs_phase"]]}
    raise ValueError(f"no checks for scenario {scenario!r}")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check(config: dict, outdir: Path, expected: dict) -> tuple[float, list[str]]:
    """Compare one run with its expected values.

    Returns the largest absolute deviation and a list of problems; a
    problem is a missing value or a deviation beyond the tolerance (NaN
    counts as beyond).
    """
    tolerances = _tolerances(config)
    got = extract(config, outdir)
    problems = []
    worst = 0.0
    if set(got) != set(expected):
        problems.append(f"values {sorted(got)} differ from the expected {sorted(expected)}")
    for name in sorted(set(got) & set(expected)):
        have, want = got[name], expected[name]
        if len(have) != len(want):
            problems.append(f"{name}: {len(have)} values, expected {len(want)}")
            continue
        tol = tolerances.get(name, tolerances.get("*"))
        for h, w in zip(have, want):
            dev = abs(h - w)
            if name == "cs_phase":  # compared as angles
                dev = min(dev, 2 * math.pi - dev)
            if not dev <= tol:
                problems.append(f"{name}: {h!r} deviates from {w!r} by more than {tol:g}")
                break
            worst = max(worst, dev)
    return worst, problems
