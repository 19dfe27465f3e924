"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing
import workloads
from worker import ROOT, Runner, import_cli

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _written(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    workloads.write(workloads.generate(workload, seed), directory)
    prefix = str(directory.resolve()).encode()
    return {p.name: p.read_bytes().replace(prefix, b"<dir>") for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = _written(workload, 7, tmp_path / "a")
    assert first == _written(workload, 7, tmp_path / "b")
    assert first != _written(workload, 8, tmp_path / "c")


@pytest.mark.parametrize("workload", ["gates", "trimer"])
def test_every_generated_config_has_a_reference(workload):
    reference = checks.load_reference()
    grid = {workloads.config_key(c) for c in workloads.grid(workload)}
    assert grid <= set(reference)
    for seed in range(50):
        for slot in workloads.generate(workload, seed):
            assert slot.key in grid


def _bindings() -> dict:
    """Every name in the package's modules and classes, with the object it is bound to."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == tracing.PACKAGE or mod_name.startswith(tracing.PACKAGE + "."):
            for attr, obj in vars(module).items():
                out[(mod_name, attr)] = obj
                if inspect.isclass(obj) and obj.__module__ == mod_name:
                    for meth, raw in vars(obj).items():
                        out[(f"{mod_name}.{attr}", meth)] = raw
    return out


def _cheap_slots(tmp_path: Path):
    wanted = {"gates": ("pi2-4096", "hadamard-4096-0", "ramsey-4096", "trace-sweep-4096"),
              "trimer": ("trimer-sim-1025rows", "phase-sweep-9x4"),
              "linking": ("chain3-768",)}
    slots = [s for w, names in wanted.items() for s in workloads.generate(w, 3) if s.name in names]
    return slots, workloads.write(slots, tmp_path / "configs")


def test_traced_run_writes_identical_files_and_restores_every_binding(tmp_path):
    cli = import_cli()
    slots, paths = _cheap_slots(tmp_path)
    runner = Runner(cli, slots, paths, tmp_path)
    before = _bindings()
    runner.run_pass()  # untraced: checked against the references
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            assert cli.integrate_wilson.__wrapped__ is before[("triholonomy.holonomy", "integrate_wilson")]
            runner.run_pass(tracer)  # traced: must reproduce the checked files byte for byte
        counts.append(dict(tracer.counts))
        layers = tracer.layers()
        assert all(layers[layer]["calls"] > 0 for layer in tracing.LAYERS)
    assert runner.failures == []
    assert counts[0] == counts[1]
    assert all(counts[0][c] > 0 for c in tracing.COUNTERS)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    cmd = [*BENCHMARK["command"], "--workload", "linking", "--seed", "0", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd], cwd=ROOT,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "failed_ratio" in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "gates", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
