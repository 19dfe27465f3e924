"""One workload run of the benchmark, in its own process (started by run.py).

    python3 perfbench/worker.py --workload W --seed N --work DIR --setup-only
    python3 perfbench/worker.py --workload W --seed N --work DIR --seconds S --trace 0|1 --result FILE

The program is imported from ``src/`` of the checkout this file sits in.
With ``--setup-only`` the worker imports ``triholonomy.cli``, writes the
workload's configs, prints ``ready`` and exits; run.py times that from a
fresh interpreter.  Otherwise it drives ``triholonomy.cli.main(["run",
config, "--out", dir, "--threads", "1"])`` in a closed loop, one scenario
at a time, and writes its measurements as JSON to ``--result``.

Every timing is scaled to a nominal host speed.  On a shared 2-vCPU
x86-64 host (Xeon, 2.1 GHz nominal) the speed of one core changed by up to
1.8x from one minute to the next as other tenants loaded the machine: one
config took 37 ms in one process and 68 ms in the next, each steady within
itself.  A fixed reference kernel, timed just before and after each run,
measures that speed.  The runs of a pass are multiplied by
``REFERENCE_NOMINAL_S`` over the median kernel time of the pass, so the
figures read as seconds on the host at its nominal speed and do not move
with the host's state.  (The kernel is short and itself jitters, so one
median per pass scales better than one kernel time per run.)

A pass runs every slot of the workload once.  The first pass warms the
process up and checks each output against its expected values; the
measured passes then only have to reproduce the checked data files byte
for byte.  The number of measured passes is fixed from ``--seconds`` and a
nominal pass time, so both sides of a comparison do the same work and
report the same percentile.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = "run_manifest.json"

# Seconds one pass of each workload took at the defining commit (2-core
# x86-64 host, Python 3.11, numpy 2.4); converts --seconds into passes.
NOMINAL_PASS_SECONDS = {"gates": 2.7, "trimer": 2.7, "linking": 1.7}
# An untraced plus a traced pass take about 2.2 untraced passes.
TRACED_PAIR_FACTOR = 2.2
# Time the reference kernel takes on the defining host at its nominal speed.
REFERENCE_NOMINAL_S = 0.008
# Per-layer figures that must repeat exactly between traced passes.
EXACT_KEYS = {f"{layer}.calls" for layer in tracing.LAYERS} | set(tracing.COUNTERS) | {"cli.bytes_written"}


def import_cli():
    """``triholonomy.cli`` from this checkout's ``src/``; exits with a message if it is missing."""
    src = (ROOT / "src").resolve()
    if not (src / "triholonomy" / "cli.py").is_file():
        sys.exit(f"perfbench: no triholonomy sources under {src}")
    sys.path.insert(0, str(src))
    from triholonomy import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: triholonomy was imported from {cli.__file__}, not {src}")
    return cli


def reference_seconds() -> float:
    """Duration of a fixed kernel of interpreter work and small numpy calls."""
    x = np.linspace(0.0, 1.0, 64)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40000):
        acc += i * 0.5
    for i in range(600):
        acc += float(np.sum(np.cos(x * i)))
    return time.perf_counter() - t0


def host_scale(reference_times) -> float:
    """Factor that turns seconds measured beside these kernel times into nominal-host seconds."""
    return REFERENCE_NOMINAL_S / statistics.median(reference_times)


def measured_passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_SECONDS[workload]))


def traced_pairs(workload: str, seconds: float) -> int:
    return max(2, round(seconds / (TRACED_PAIR_FACTOR * NOMINAL_PASS_SECONDS[workload])))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs the slots of one workload through the CLI and checks every run."""

    def __init__(self, cli, slots, paths, work: Path):
        self.cli = cli
        self.slots = slots
        self.paths = paths
        self.out = work / "out"
        self.reference = checks.load_reference()
        self.attempted = 0
        self.failures: list[str] = []
        self.max_abs_dev = 0.0
        self.digests: dict[int, dict] = {}  # slot index -> data file digests of its checked run
        self.bytes_written = 0
        self.scales: list[float] = []  # host scale of every measured pass

    def expected(self, slot) -> dict | None:
        return slot.truth if slot.truth is not None else self.reference.get(slot.key)

    def run_one(self, index: int, tracer=None) -> tuple[float, float]:
        """One ``triholonomy run`` of a slot; returns its latency and the mean kernel time beside it."""
        slot, path = self.slots[index], self.paths[index]
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        argv = ["run", str(path), "--out", str(self.out), "--threads", "1"]
        if tracer is not None:
            tracer.run_id = self.attempted
        before = reference_seconds()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed run, not a failed benchmark
                code = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        reference = 0.5 * (before + reference_seconds())
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit {code!r}"
        else:
            files = sorted(p for p in self.out.iterdir() if p.is_file() and p.name != MANIFEST)
            self.bytes_written += sum(p.stat().st_size for p in files)
            digest = {p.name: _digest(p) for p in files}
            if index not in self.digests:
                problem = self._check(index, digest)
            elif digest != self.digests[index]:
                problem = "data files differ from the checked run of the same config"
        if problem:
            self.failures.append(f"{slot.name}: {problem}")
        return latency, reference

    def _check(self, index: int, digest: dict) -> str | None:
        slot = self.slots[index]
        expected = self.expected(slot)
        if expected is None:
            return "no reference recorded for this config"
        dev, problems = checks.check(slot.config, self.out, expected)
        self.max_abs_dev = max(self.max_abs_dev, dev)
        if problems:
            return "; ".join(problems)
        self.digests[index] = digest
        return None

    def run_pass(self, tracer=None) -> list[tuple[float, float]]:
        """Run every slot once; returns each run's latency with the pass's host scale."""
        runs = [self.run_one(i, tracer) for i in range(len(self.slots))]
        scale = host_scale([ref for _, ref in runs])
        self.scales.append(scale)
        return [(latency, scale) for latency, _ in runs]


def end_to_end(runner: Runner, workload: str, seconds: float) -> dict:
    """Latencies of the measured passes, in nominal-host seconds, slot by slot."""
    runner.run_pass()  # warm-up and full output checks
    passes = [[raw * scale for raw, scale in runner.run_pass()]
              for _ in range(measured_passes(workload, seconds))]
    return {"passes": passes, "host_scales": runner.scales[-len(passes):]}


def per_layer(runner: Runner, workload: str, seconds: float, spans_path: Path | None) -> dict:
    """Per-layer figures from alternating untraced and traced passes."""
    runner.run_pass()  # warm-up and full output checks
    plain, traced, snapshots = [], [], []
    for _ in range(traced_pairs(workload, seconds)):
        plain.append(sum(raw * scale for raw, scale in runner.run_pass()))
        start = runner.bytes_written
        with tracing.Tracer() as tracer:
            runs = runner.run_pass(tracer)
        traced.append(sum(raw * scale for raw, scale in runs))
        snapshots.append(_snapshot(tracer, runs, runner.bytes_written - start))
    exact = [{k: v for k, v in s.items() if k in EXACT_KEYS} for s in snapshots]
    repeated = all(e == exact[0] for e in exact[1:])
    if not repeated:
        print(f"perfbench: exact counts differ between traced passes: {exact}", file=sys.stderr)
    metrics = {k: exact[0][k] if k in EXACT_KEYS else statistics.median(s[k] for s in snapshots)
               for k in snapshots[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["check.max_abs_dev"] = runner.max_abs_dev
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({
            "fields": ["id", "parent", "run", "name", "start_s", "end_s"],
            "spans": tracer.spans,
            "totals": {name: dict(zip(("calls", "total_s", "self_s"), v)) for name, v in tracer.stats.items()},
        }))
    return {"metrics": metrics, "counts_repeat": repeated, "traced_passes": len(traced)}


def _snapshot(tracer: tracing.Tracer, runs: list[tuple[float, float]], bytes_written: int) -> dict:
    """Per-layer figures of one traced pass; times are scaled by the pass's median host scale."""
    wall_s = sum(raw for raw, _ in runs)
    scale = statistics.median(s for _, s in runs)
    out = {}
    for layer, v in tracer.layers().items():
        out[f"{layer}.calls"] = v["calls"]
        out[f"{layer}.self_ms"] = 1e3 * v["self_s"] * scale
        out[f"{layer}.share"] = v["self_s"] / wall_s
    out.update(tracer.counts)
    steps = tracer.counts["holonomy.su2_steps"]
    su2_s = tracer.total_s("holonomy.su2_exponentials", "holonomy.ordered_product")
    out["holonomy.ns_per_step"] = 1e9 * su2_s * scale / steps if steps else 0.0
    out["cli.bytes_written"] = bytes_written
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    cli = import_cli()
    slots = workloads.generate(args.workload, args.seed)
    paths = workloads.write(slots, args.work / "configs")
    if args.setup_only:
        print("ready", flush=True)
        print(host_scale([reference_seconds() for _ in range(3)]), flush=True)
        return 0

    runner = Runner(cli, slots, paths, args.work)
    if args.trace:
        result = per_layer(runner, args.workload, args.seconds, args.spans)
    else:
        result = end_to_end(runner, args.workload, args.seconds)
    result.update(attempted=runner.attempted, failures=runner.failures,
                  max_abs_dev=runner.max_abs_dev)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
