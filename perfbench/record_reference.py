"""Record the reference values of every gates and trimer config the generator can write.

    python3 perfbench/record_reference.py

Runs each grid config of workloads.py once through ``triholonomy run`` and
stores the values checks.py compares against in reference.json.  The file
records the program as it was when the benchmark was defined; recording it
again from a changed program is a change to the benchmark.  Every config
must exit 0; the script stops at the first that does not.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from worker import ROOT, import_cli


def main() -> int:
    cli = import_cli()
    reference = {}
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=work_root))
    try:
        for workload in ("gates", "trimer"):
            configs = workloads.grid(workload)
            for i, config in enumerate(configs):
                path, out = work / "config.json", work / "out"
                path.write_text(json.dumps(config))
                shutil.rmtree(out, ignore_errors=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", str(path), "--out", str(out), "--threads", "1"])
                if code != 0:
                    print(f"exit {code} for {workloads.config_key(config)}", file=sys.stderr)
                    return 1
                reference[workloads.config_key(config)] = checks.extract(config, out)
                print(f"{workload}: {i + 1}/{len(configs)}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [f"{json.dumps(k)}: {json.dumps(reference[k], sort_keys=True)}" for k in sorted(reference)]
    checks.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reference)} references to {checks.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
