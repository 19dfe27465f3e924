"""Digests of the data files of the shipped configs and the benchmark slots, and their differences.

    python tools/data_digests.py OUT          # run every config; write OUT/<run>/<file> and OUT/digests.json
    python tools/data_digests.py --diff A B   # the data files of two such directories that differ

The runs are the configs in ``configs/`` and every gates, trimer and linking
slot of seeds 0-9 that ``perfbench/workloads.py`` generates, 309 data files in
all.  Each goes through this checkout's ``triholonomy.cli.main(["run", ...])``
in one process, and the sha256 of each data file is recorded;
``run_manifest.json`` is left out, as it records wall time.  ``--diff`` lists
each file whose digest differs with the largest absolute difference of its
numbers (CSV cells, or JSON numbers, keys sorted), and each file that
only one side has; it exits 1 if any file differs.  Needs numpy and the
standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
DIGESTS = "digests.json"


def _runs(work: Path) -> list[tuple[str, Path]]:
    """(run name, config path) of every run; the slots' configs and curve files are written under ``work``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    runs = [(f"configs-{path.stem}", path) for path in sorted((ROOT / "configs").glob("*.json"))]
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            paths = workloads.write(workloads.generate(workload, seed), work / f"{workload}-{seed}")
            runs += [(f"{workload}-{seed}-{path.stem}", path) for path in paths]
    return runs


def record(out: Path) -> dict:
    """Run every config into ``out``, a new or empty directory; write ``out/digests.json``, {run/file: sha256}."""
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"data_digests: {out} is not empty")
    sys.path.insert(0, str(ROOT / "src"))
    from triholonomy.cli import main

    digests = {}
    with tempfile.TemporaryDirectory() as work:
        for name, config in _runs(Path(work)):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", str(config), "--out", str(out / name)])
            if code != 0:
                raise SystemExit(f"data_digests: {name} exited {code}")
            for path in sorted((out / name).iterdir()):
                if path.name != "run_manifest.json":
                    digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (out / DIGESTS).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return digests


def _numbers(path: Path) -> np.ndarray:
    """The numbers of a data file: its CSV cells row by row, or its JSON numbers, keys sorted."""
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).ravel()

    def walk(node):
        if isinstance(node, dict):
            for key in sorted(node):
                yield from walk(node[key])
        elif isinstance(node, list):
            for item in node:
                yield from walk(item)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            yield float(node)

    return np.array(list(walk(json.loads(path.read_text()))), dtype=float)


def largest_difference(a: Path, b: Path) -> float:
    """max |a - b| over the numbers of two data files; NaN against NaN counts 0, inf if the counts differ."""
    x, y = _numbers(a), _numbers(b)
    if x.shape != y.shape:
        return math.inf
    with np.errstate(invalid="ignore"):
        gap = np.abs(x - y)
    gap[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0  # equal infinities included
    return float(np.where(np.isnan(gap), math.inf, gap).max(initial=0.0))


def diff(a: Path, b: Path) -> int:
    """Print the files of two recorded directories that differ; 1 if any does, else 0."""
    da, db = (json.loads((d / DIGESTS).read_text()) for d in (a, b))
    differ = sorted(name for name in da.keys() & db.keys() if da[name] != db[name])
    for name in differ:
        print(f"{name}\tmax abs diff {largest_difference(a / name, b / name):.3g}")
    only = sorted(da.keys() ^ db.keys())
    for name in only:
        print(f"{name}\tonly in {a if name in da else b}")
    print(f"{len(differ)} of {len(da.keys() & db.keys())} data files differ; {len(only)} on one side only")
    return int(bool(differ or only))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=Path, help="directory to run every config into")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"), help="compare two recorded directories")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.out is None:
        parser.error("give OUT or --diff A B")
    print(f"{len(record(args.out))} data files recorded in {args.out / DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
