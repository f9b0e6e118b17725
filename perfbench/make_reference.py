"""Record the reference outputs the benchmark's checks compare against.

Run once, from the repository root, at the commit that defines the
benchmark::

    python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``: the peak values of the ``run-cea``
workload (its input does not depend on the seed) and every point of the
``sweep-fig4a`` azimuth axis (so every seed is covered).  A change that
claims a gain must not re-record it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import checks
import workloads
from run import Bench, WORK_DIR


def _sweep(bench: Bench, config: dict, name: str) -> dict:
    path = bench.work / f"{name}.json"
    path.write_text(json.dumps(config) + "\n")
    out = bench.work / name
    _, _, code = bench.cli(["sweep", "--config", str(path), "--out-dir", str(out)])
    if code != 0:
        raise SystemExit(f"{name}: sweep exited {code}")
    rows = checks.sweep_rows(out)
    return {key: {k: v for k, v in row.items() if k != "runtime_s"}
            for key, row in rows.items()}


def main() -> int:
    root = Path.cwd()
    work = root / WORK_DIR / "reference"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(root, work)
    bench.deadline = time.monotonic() + 600.0  # the full fig4a axis in one sweep
    ref = {}
    try:
        name = "run-cea"
        out = work / name
        _, _, code = bench.cli(workloads.WORKLOADS[name].op_args(0, work)
                               + ["--out-dir", str(out)])
        if code != 0:
            raise SystemExit(f"{name}: run exited {code}")
        vals = checks.run_values(out)
        ref[name] = {"op": {k: vals[k] for k in
                            ("phi_deg", "tau_s", "delta_db", "modes_total")}}
        ref["sweep-fig4a"] = {"rows": _sweep(
            bench, workloads.fig4a_config(workloads.FIG4A_AZIMUTHS), "fig4a")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref["recorded"] = time.strftime("%Y-%m-%d")
    checks.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
