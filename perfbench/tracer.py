"""Traced in-process runner: one CLI op with a span around each layer call.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/tracer.py TRACE.json run --preset fig3 --out-dir out

It wraps each layer's public function at the module attribute where its
caller looks it up, then calls ``elliptic_doa.cli.main(argv)`` inside a root
span ``cli.main`` and writes the spans (name, start, end, parent) and the
per-layer counts to TRACE.json.  The program itself carries no
instrumentation; only the calls between the wrapped sites are timed.

Spans and per-call facts stay in memory and become counts after
``main`` returns, so the bookkeeping adds no time inside any span but the
wrappers' own few microseconds per call.

Importing this module does not import the program; ``layer_metrics`` turns a
trace file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

# (module, attribute path looked up by the caller, span name).  A function
# that two modules import is wrapped at both places under one span name.
SITES = [
    ("elliptic_doa.cli", "resolve", "pipeline.resolve"),
    ("elliptic_doa.cli", "run_scenario", "pipeline.run_scenario"),
    ("elliptic_doa.cli", "sweep_rows", "pipeline.sweep_rows"),
    ("elliptic_doa.cli", "write_outputs", "pipeline.write_outputs"),
    ("elliptic_doa.cli", "write_sweep_csv", "pipeline.write_sweep_csv"),
    ("elliptic_doa.pipeline", "resolve", "pipeline.resolve"),
    ("elliptic_doa.pipeline", "run_scenario", "pipeline.run_scenario"),
    ("elliptic_doa.pipeline", "build_concentric", "geometry.build_concentric"),
    ("elliptic_doa.pipeline", "nyquist_audit", "geometry.nyquist_audit"),
    ("elliptic_doa.pipeline", "mode_limit", "beamform.mode_limit"),
    ("elliptic_doa.pipeline", "superpose", "channel.superpose"),
    ("elliptic_doa.pipeline", "build_bank", "beamform.build_bank"),
    ("elliptic_doa.pipeline", "expand_array", "beamform.expand_array"),
    ("elliptic_doa.pipeline", "joint_spectrum", "spectrum.joint_spectrum"),
    ("elliptic_doa.pipeline", "find_peaks", "spectrum.find_peaks"),
    ("elliptic_doa.beamform", "phase_mode_expand", "beamform.phase_mode_expand"),
    ("elliptic_doa.beamform", "concentric_expand", "beamform.concentric_expand"),
    ("elliptic_doa.beamform", "bessel_j_table", "specfun.bessel_j_table"),
    ("elliptic_doa.spectrum", "JointSpectrum.export_csv", "spectrum.export_csv"),
    ("elliptic_doa.spectrum", "JointSpectrum.export_pgm", "spectrum.export_pgm"),
]
ROOT = "cli.main"

# "<span>.s" is the summed span duration per op, "<span>.self_s" the summed
# self time (duration minus the part covered by child spans)
TIME_METRICS = [
    "beamform.phase_mode_expand.self_s",
    "specfun.bessel_j_table.s",
    "spectrum.export_csv.s",
    "spectrum.export_pgm.s",
    "spectrum.joint_spectrum.s",
    "spectrum.find_peaks.s",
    "beamform.build_bank.s",
    "beamform.mode_limit.self_s",
    "beamform.concentric_expand.s",
    "channel.superpose.s",
    "geometry.build_concentric.s",
    "geometry.nyquist_audit.s",
    "pipeline.resolve.self_s",
    "pipeline.sweep_rows.self_s",
    "pipeline.write_outputs.self_s",
    "cli.main.self_s",
]
COUNT_UNITS = {
    "specfun.bessel_j_table.calls": "count",
    "specfun.table_entries": "count",
    "specfun.lane_steps": "count",
    "specfun.active_lane_frac": "ratio",
    "beamform.build_bank.calls": "count",
    "beamform.banks_distinct": "count",
    "beamform.unique_evals": "count",
    "beamform.dense_weights": "count",
    "beamform.expand_macs": "count",
    "beamform.expand_bytes": "bytes",
    "spectrum.fft_cells": "count",
    "spectrum.export_csv.bytes": "bytes",
    "channel.values_bytes": "bytes",
}


# What each span keeps of its call for the counts: small values only, taken
# right after the span closes; the array arguments are hashed or measured
# after ``main`` returns.
FACTS = {
    "specfun.bessel_j_table": lambda a, r: (int(a["m_max"]), a["x"]),
    "beamform.build_bank": lambda a, r: (a["array"], repr(a["grid"]), a["design"],
                                         int(a["mode_half"]), a["reduction"]),
    "beamform.phase_mode_expand": lambda a, r: (
        r.values.shape[0] * a["channel"].ring_rows(a["ring"]).shape[0] * r.values.shape[1]),
    "pipeline.run_scenario": lambda a, r: (int(r.bank_unique_evals),
                                           int(r.bank_dense_weights)),
    "spectrum.joint_spectrum": lambda a, r: int(r.magnitudes.size),
    "spectrum.export_csv": lambda a, r: os.path.getsize(a["path"]),
    "channel.superpose": lambda a, r: int(r.values.nbytes),
}


class Tracer:
    """Span stack plus the call facts the counts are computed from."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.facts = {name: [] for name in FACTS}

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, fn, name):
        sig = inspect.signature(fn)
        extract = FACTS.get(name)

        def record(args, kwargs, result):
            if extract is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.facts[name].append(extract(bound.arguments, result))

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # the span covers the whole iteration, which is where the work runs
                self._open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close()
                record(args, kwargs, None)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            record(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for module_name, attr, name in SITES:
            owner = importlib.import_module(module_name)
            *parents, leaf = attr.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), name))

    def run(self, argv):
        from elliptic_doa import cli

        self._open(ROOT)
        try:
            return cli.main(argv)
        finally:
            self._close()

    def counts(self) -> dict:
        import numpy as np

        entries = steps = seeded = 0
        for m_max, x in self.facts["specfun.bessel_j_table"]:
            x = np.atleast_1d(np.asarray(x, dtype=np.float64)).ravel()
            entries += (m_max + 1) * x.size
            # lanes with x >= 1 run the Miller recurrence from the start order
            # documented in specfun: max(m_max, ceil x) + max(22, ceil(13.5 (x/2)^(1/3)))
            x = x[x >= 1.0]
            if x.size:
                pad = np.maximum(22, np.ceil(13.5 * np.cbrt(x / 2.0)))
                nstart = np.maximum(m_max, np.ceil(x)) + pad
                steps += int((nstart.max() + 1) * x.size)
                seeded += int((nstart + 1).sum())

        banks = set()
        for array, *rest in self.facts["beamform.build_bank"]:
            digest = hashlib.sha1()
            for ring in range(array.ring_count):
                digest.update(np.ascontiguousarray(array.ring_xy(ring)).tobytes())
            banks.add((digest.hexdigest(), *rest))

        macs = sum(self.facts["beamform.phase_mode_expand"])
        runs = self.facts["pipeline.run_scenario"]
        return {
            "specfun.bessel_j_table.calls": len(self.facts["specfun.bessel_j_table"]),
            "specfun.table_entries": entries,
            "specfun.lane_steps": steps,
            "specfun.active_lane_frac": seeded / steps if steps else 0.0,
            "beamform.build_bank.calls": len(self.facts["beamform.build_bank"]),
            "beamform.banks_distinct": len(banks),
            "beamform.unique_evals": sum(u for u, _ in runs),
            "beamform.dense_weights": sum(d for _, d in runs),
            "beamform.expand_macs": macs,
            # computed: one complex128 (modes x P) operator per frequency sample
            "beamform.expand_bytes": 16 * macs,
            "spectrum.fft_cells": sum(self.facts["spectrum.joint_spectrum"]),
            "spectrum.export_csv.bytes": sum(self.facts["spectrum.export_csv"]),
            "channel.values_bytes": sum(self.facts["channel.superpose"]),
        }


def span_times(spans) -> tuple:
    """Summed duration and self time per span name."""
    total, self_time = {}, {}
    for name, start, end, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start)
    for name, start, end, parent in spans:
        if parent is not None:
            parent_name = spans[parent][0]
            self_time[parent_name] -= end - start
    return total, self_time


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values of one traced op (times in seconds)."""
    total, self_time = span_times(trace["spans"])
    out = {}
    for metric in TIME_METRICS:
        span, kind = metric.rsplit(".", 1)
        out[metric] = (self_time if kind == "self_s" else total).get(span, 0.0)
    out.update(trace["counts"])
    return out


def main(argv) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = tracer.run(cli_argv)
    with open(trace_path, "w") as fh:
        json.dump({"exit_code": code, "spans": tracer.spans,
                   "counts": tracer.counts()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
