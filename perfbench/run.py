"""Benchmark runner: closed-loop CLI ops in fresh processes, one client.

Run from the repository root::

    python3 perfbench/run.py --workload run-cea --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50      # summary table

Each op is one ``python -m elliptic_doa.cli ...`` process with
``PYTHONPATH=src``; the next op starts when the previous one has exited.
Fresh processes are deliberate: a user's ``run`` is a fresh process, so state
memoised across ops cannot count as a gain, while reuse inside one sweep
does.  Children run with BLAS/OpenMP threads pinned to ``THREADS``.

``--trace 0`` reports the end-to-end metrics:

    setup_s      wall time of a fresh ``presets`` process (start-up cost
                 every op pays) at a fixed host speed: ``REF_NOMINAL_S`` times
                 the median of each process's time over the ``reftask.py``
                 run right after it; one runs before each op, and at least
                 ``SETUP_REPEATS`` run
    op_p50_rel   median over ops of the op's wall time (a sweep op is the
                 whole sweep) divided by the mean wall time of the two runs
                 of ``reftask.py`` around it; that fixed task runs before
                 each op and after the last, and uses none of the program
    peak_rss_mb  largest child max-RSS over the run

Both timings are relative to the reference task because the shared host's
speed drifts: on a shared 2-core x86-64 host the fastest ``sweep-fig4a`` op
of a 50 s run went from 2.3 s to over 5 s within an hour, and the median
``presets`` time of two sets of runs 20 minutes apart differed by 44%,
more than any bound could allow.  The reference task slows with the host,
and no change to the program can move it, so the ratios move with the
program only.  The raw medians (``op_p50_s``, ``setup_p50_s``,
``ref_p50_s``) and the fastest op (``op_min_s``) are printed too, but they
are not part of the result.

``--trace 1`` alternates an untraced op with the same op run through
``tracer.py`` and reports the per-layer metrics (medians over traced ops),
plus ``cli.startup_s`` (traced process wall time minus its in-process
``cli.main`` span) and ``trace.overhead_frac`` (median traced op wall time
over median untraced op wall time, minus one).

Every op's outputs are checked (see ``checks.py``); an op that exits non-zero
or fails a check counts in ``failed``.  The last stdout line is the JSON
result; the line before it holds the host facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 10
DEADLINE_S = 170.0  # every run must exit within 180 s
BENCH_DIR = Path(__file__).resolve().parent
REF_TASK = BENCH_DIR / "reftask.py"
# setup_s is given in seconds on a host where reftask.py takes this long (its
# median on the 2-core x86-64 host where the benchmark was defined)
REF_NOMINAL_S = 0.3
WORK_DIR = ".perfbench_work"


class Bench:
    """Runs CLI children from a checkout root and keeps the run's deadline."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.update({v: str(THREADS) for v in THREAD_VARS})

    def child(self, argv: list, log: Path = None) -> tuple:
        """Run one child to completion: (wall seconds, max RSS in MB, exit code)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run deadline passed")
        out = open(log, "wb") if log else subprocess.DEVNULL
        try:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                # wait4 rather than Popen.wait: it returns this child's own rusage
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if log:
                out.close()
        if proc.returncode == -9 and time.monotonic() >= self.deadline:
            raise TimeoutError(f"child {argv[:3]} killed at the run deadline")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def cli(self, args: list, log: Path = None) -> tuple:
        return self.child(["-m", "elliptic_doa.cli"] + args, log)


def host_facts() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "openblas": blas, "machine": platform.machine(),
            "child_threads": {v: str(THREADS) for v in THREAD_VARS},
            "parent_env_threads": {v: os.environ.get(v) for v in THREAD_VARS}}


class Loop:
    """Closed loop over one workload's op; records walls, RSS and failures."""

    def __init__(self, bench: Bench, workload, seed: int):
        self.bench = bench
        self.workload = workload
        self.seed = seed
        self.args = workload.op_args(seed, bench.work)
        self.reference = checks.load_reference()
        self.walls, self.rss = [], []
        self.attempted = self.failed = 0
        self.errors = []

    def _finish(self, out_dir: Path, log: Path, rss: float, code: int) -> bool:
        self.attempted += 1
        self.rss.append(rss)
        try:
            if code != 0:
                raise checks.CheckError(f"exit code {code}: {_tail(log)}")
            checks.check_op(self.workload, self.seed, out_dir, self.reference)
        except checks.CheckError as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return False
        return True

    def _run(self, prefix: list, name: str) -> tuple:
        out_dir = self.bench.work / name
        shutil.rmtree(out_dir, ignore_errors=True)
        log = self.bench.work / f"{name}.log"
        wall, rss, code = self.bench.child(
            prefix + self.args + ["--out-dir", str(out_dir)], log)
        return wall, self._finish(out_dir, log, rss, code)

    def op(self, name: str = "op") -> bool:
        wall, ok = self._run(["-m", "elliptic_doa.cli"], name)
        self.walls.append(wall)
        return ok

    def traced_op(self, name: str = "traced") -> tuple:
        """One op under tracer.py: (wall seconds, trace dict or None)."""
        trace_path = self.bench.work / f"{name}.trace.json"
        wall, ok = self._run([str(BENCH_DIR / "tracer.py"), str(trace_path)], name)
        return wall, json.loads(trace_path.read_text()) if ok else None


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def _reference(bench: Bench) -> float:
    """Wall time of one ``reftask.py`` process."""
    wall, _, code = bench.child([str(REF_TASK)])
    if code != 0:
        raise RuntimeError(f"reftask.py exited {code}")
    return wall


def measure(bench: Bench, workload, seed: int, seconds: float, trace: bool) -> tuple:
    """One run; returns (loop, metrics, printed-only values)."""
    bench.cli(["presets"])  # warm-up: compiles bytecode, as an installed package has
    loop = Loop(bench, workload, seed)
    setup, ref, traced_walls, layers = [], [], [], []
    start = time.monotonic()
    while not loop.attempted or time.monotonic() - start < seconds:
        if not trace:
            # spread over the run, so they see the same drift of host speed as the ops
            setup.append(bench.cli(["presets"])[0])
            ref.append(_reference(bench))
        loop.op()
        if trace:
            wall, tr = loop.traced_op()
            if tr is not None:
                traced_walls.append(wall)
                total, _ = tracer.span_times(tr["spans"])
                values = tracer.layer_metrics(tr)
                values["cli.startup_s"] = wall - total[tracer.ROOT]
                layers.append(values)
    if not trace:
        ref.append(_reference(bench))  # the task after the last op
        # each op against the tasks just before and after it follows drift
        # within the run better than a ratio of two medians
        rel = [w / ((a + b) / 2) for w, a, b in zip(loop.walls, ref, ref[1:])]
        setup_rel = [p / r for p, r in zip(setup, ref)]
        while len(setup) < SETUP_REPEATS:
            setup.append(bench.cli(["presets"])[0])
            ref.append(_reference(bench))
            setup_rel.append(setup[-1] / ref[-1])
        return loop, {
            "setup_s": _metric(REF_NOMINAL_S * statistics.median(setup_rel), "s", len(setup)),
            "op_p50_rel": _metric(statistics.median(rel), "ratio", len(rel)),
            "peak_rss_mb": _metric(max(loop.rss), "MB", len(loop.rss)),
        }, {
            "op_p50_s": _metric(statistics.median(loop.walls), "s", len(loop.walls)),
            "op_min_s": _metric(min(loop.walls), "s", len(loop.walls)),
            "setup_p50_s": _metric(statistics.median(setup), "s", len(setup)),
            "ref_p50_s": _metric(statistics.median(ref), "s", len(ref)),
        }
    metrics = {}
    if layers:
        units = dict(tracer.COUNT_UNITS, **{"cli.startup_s": "s"})
        for name in layers[0]:
            # counts repeat exactly, so they keep an observed (integer) value
            median = statistics.median_low if name in tracer.COUNT_UNITS else statistics.median
            metrics[name] = _metric(median(v[name] for v in layers),
                                    units.get(name, "s"), len(layers))
        metrics["trace.overhead_frac"] = _metric(
            statistics.median(traced_walls) / statistics.median(loop.walls) - 1.0,
            "ratio", len(traced_walls))
    return loop, metrics, {}


def run_one(root: Path, name: str, seed: int, seconds: float, trace: bool) -> int:
    work = root / WORK_DIR / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(root, work)
        try:
            loop, metrics, notes = measure(bench, WORKLOADS[name], seed, seconds, trace)
        except (TimeoutError, RuntimeError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if trace and not metrics:
            print("perfbench: no traced op succeeded", file=sys.stderr)
            for err in loop.errors:
                print(f"perfbench: {err}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for err in loop.errors:
        print(f"perfbench: failed op: {err}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    for key, m in notes.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']} (n={m['samples']}, not in the result)")
    print(f"{name} failed_frac = {loop.failed / loop.attempted:.6g} "
          f"(n={loop.attempted})")
    print("host: " + json.dumps(host_facts(), sort_keys=True))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    root = Path.cwd()
    if not (root / "src" / "elliptic_doa" / "cli.py").is_file():
        print("perfbench: run from a checkout root holding src/elliptic_doa",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        code = max(code, run_one(root, name, args.seed, args.seconds, bool(args.trace)))
    return code


if __name__ == "__main__":
    sys.exit(main())
