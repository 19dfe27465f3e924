"""Benchmark of the triholonomy CLI: seeded gates / trimer / linking workloads.

    python3 perfbench/run.py --workload gates|trimer|linking --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ``src/``
there, nothing needs installing.  Each run

* times set-up: five fresh interpreters (after one warm-up) that each
  import ``triholonomy.cli`` and write the workload's configs; ``setup_s``
  is their median;
* starts two worker processes (worker.py), one after the other, that each
  drive ``triholonomy.cli.main(["run", ...])`` in a closed loop, one
  client and one scenario at a time, over the workload's seeded configs
  for half of the measured passes, and check every output (checks.py);
* prints one line per metric and, last, one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics over the pooled passes:
``setup_s``, ``throughput_runs_per_s``, ``run_p50_ms``, ``run_tail_ms``
(the highest of p50/p75/p90/... with at least ten runs beyond it) and
``peak_rss_mb`` (the larger ``ru_maxrss`` of the two workers).  Timings
are in seconds of the host at its nominal speed (see worker.py).
``failed_ratio`` is printed and carried by ``failed``/``attempted``.
``--trace 1`` runs one worker that alternates untraced and traced passes
(tracing.py) and reports the per-layer metrics, the tracing overhead, and
the largest deviation from the reference values; the spans of the last
traced pass go to ``.perfbench_out/``.  Child processes run with
address-space randomisation off and single-threaded numerical libraries.

Scratch files live in ``.perfbench_work/`` of the checkout and are removed
at exit.  The self-tests run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
# The measured passes are split over this many worker processes.  The same
# config settles at a different speed in each process (by up to 20% for the
# larger trimer and linking runs, with layout randomisation already off), so
# pooling two processes halves the weight of any one.
WORKER_PROCESSES = 2
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
ADDR_NO_RANDOMIZE = 0x0040000  # Linux personality flag
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(Exception):
    pass


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    # One client on one core: keep numerical libraries from starting thread pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(work)
    return env


def _fixed_layout() -> None:
    """Turn off address-space randomisation for the child about to be executed.

    With it on, the same config in two worker processes differed by up to
    20% after scaling for host speed (one process steady at 51 ms, the next
    at 73 ms); with it off, by 4%.  Only the benchmark's own children are
    affected.  Runs in the forked child before exec.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def _worker_cmd(args, work: Path, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--work", str(work), *extra]


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for a child; return (exit status, its rusage).

    The child is killed if the deadline passes or the wait is interrupted.
    """
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                raise BenchmarkError("a child process ran past its deadline and was killed")
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        _, status, _ = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        raise


def setup_seconds(args, work: Path) -> float:
    """Median time from starting a fresh interpreter until it reports ready.

    Each probe then times the reference kernel, and its set-up time is
    scaled to the nominal host speed like every other timing (worker.py).
    """
    samples = []
    for i in range(SETUP_PROBES + 1):
        probe_dir = work / f"setup{i}"
        cmd = _worker_cmd(args, probe_dir, "--setup-only")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(work), text=True,
                                preexec_fn=_fixed_layout)
        line = scale = ""
        answered = []
        try:
            answered = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]
            if answered:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                scale = proc.stdout.read()
        finally:
            proc.stdout.close()
            code, _ = _reap(proc, time.monotonic() + (CHILD_TIMEOUT_S if answered else 0.0))
        if line.strip() != "ready" or code != 0:
            raise BenchmarkError(f"set-up probe failed (exit {code})")
        shutil.rmtree(probe_dir, ignore_errors=True)
        if i > 0:  # the first probe also compiles bytecode and fills the page cache
            samples.append(elapsed * float(scale))
    return statistics.median(samples)


def run_worker(args, work: Path, seconds: float) -> tuple[dict, float]:
    """Run the workload in a worker process; return its result and peak RSS in MB."""
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    extra = ["--seconds", str(seconds), "--trace", str(args.trace), "--result", str(result_path)]
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        extra += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(_worker_cmd(args, work, *extra), stdout=subprocess.DEVNULL,
                            env=_child_env(work), preexec_fn=_fixed_layout)
    code, usage = _reap(proc, time.monotonic() + CHILD_TIMEOUT_S)
    if code != 0 or not result_path.is_file():
        raise BenchmarkError(f"worker failed (exit {code})")
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024.0


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest ladder percentile with
    at least ten samples beyond it, or the lowest rung when none has ten."""
    values = sorted(latencies)
    n = len(values)

    def beyond(p):
        return n - 1 - int((n - 1) * p / 100.0)

    qualified = [p for p in TAIL_LADDER if beyond(p) >= MIN_BEYOND]
    p = qualified[-1] if qualified else TAIL_LADDER[0]
    return p, percentile(values, p), beyond(p)


def end_to_end(passes: list[list[float]]) -> tuple[dict, str]:
    """The latency metrics of the pooled measured passes, and a line describing them."""
    latencies = [x for p in passes for x in p]
    pct, tail_s, beyond = tail(latencies)
    # One pass of the sequence at each config's median latency over the passes:
    # a slow spell of the host then moves one sample per config, not a whole pass.
    pass_s = sum(statistics.median(per_slot) for per_slot in zip(*passes))
    metrics = {
        "throughput_runs_per_s": len(passes[0]) / pass_s,
        "run_p50_ms": 1e3 * statistics.median(latencies),
        "run_tail_ms": 1e3 * tail_s,
    }
    return metrics, (f"measured {len(latencies)} runs in {len(passes)} passes; "
                     f"run_tail_ms is p{pct:g} with {beyond} runs beyond it")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="triholonomy CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "triholonomy" / "cli.py").is_file():
        print(f"perfbench: no triholonomy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        if args.trace:
            results = [run_worker(args, work, args.seconds)]
        else:
            setup = setup_seconds(args, work)
            results = [run_worker(args, work / f"worker{i}", args.seconds / WORKER_PROCESSES)
                       for i in range(WORKER_PROCESSES)]
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = results[0][0]
    attempted = sum(r["attempted"] for r, _ in results)
    failures = [f for r, _ in results for f in r["failures"]]
    max_abs_dev = max(r["max_abs_dev"] for r, _ in results)
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"workload {args.workload}, seed {args.seed}")
    if args.trace:
        metrics = result["metrics"]
        print(f"traced passes: {result['traced_passes']}, exact counts repeat: {result['counts_repeat']}")
    else:
        latency, described = end_to_end([p for r, _ in results for p in r["passes"]])
        metrics = {"setup_s": setup, **latency, "peak_rss_mb": max(rss for _, rss in results)}
        scales = [s for r, _ in results for s in r["host_scales"]]
        print(f"{described}; largest deviation from the reference values {max_abs_dev:.3g}; "
              f"timings scaled to the nominal host speed by a median {statistics.median(scales):.3f}")
    for name, value in metrics.items():
        print(f"{name:32s} {value if isinstance(value, int) else format(value, '.6g')} {units[name]}")
    print(f"{'failed_ratio':32s} {len(failures) / attempted:.6g} ({len(failures)} of {attempted} runs)")
    correct = not failures and result.get("counts_repeat", True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
