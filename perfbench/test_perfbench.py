"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

from pathlib import Path

import pytest

import checks
import tracer
from run import Bench, Loop
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]


def _loop(tmp_path, name, seed=3):
    return Loop(Bench(ROOT, tmp_path), WORKLOADS[name], seed)


@pytest.mark.parametrize("name", ["run-cea", "sweep-fig4a"])
def test_traced_counts_repeat_exactly(tmp_path, name):
    loop = _loop(tmp_path, name)
    _, first = loop.traced_op("first")
    _, second = loop.traced_op("second")
    assert loop.failed == 0, loop.errors
    assert first["counts"] == second["counts"]
    assert first["counts"]["beamform.build_bank.calls"] >= 1


def test_tracing_leaves_outputs_byte_identical(tmp_path):
    loop = _loop(tmp_path, "run-cea")
    assert loop.op("plain")
    _, trace = loop.traced_op("traced")
    assert trace is not None, loop.errors
    for artifact in ("spectrum.csv", "peaks.txt"):
        assert ((tmp_path / "plain" / artifact).read_bytes()
                == (tmp_path / "traced" / artifact).read_bytes())

    # the same outputs with a shifted delta_db must fail the reference check
    peaks = tmp_path / "traced" / "peaks.txt"
    text = peaks.read_text()
    delta = checks.parse_peaks(text)["delta_db"]
    peaks.write_text(text.replace(f"delta_db={delta:.10g}", f"delta_db={delta + 0.01:.10g}"))
    with pytest.raises(checks.CheckError, match="delta_db"):
        checks.check_op(loop.workload, loop.seed, tmp_path / "traced", loop.reference)


def test_self_times_sum_to_traced_total(tmp_path):
    loop = _loop(tmp_path, "sweep-fig4a")
    wall, trace = loop.traced_op()
    assert trace is not None, loop.errors
    total, self_time = tracer.span_times(trace["spans"])
    root = total[tracer.ROOT]
    assert 0.0 < root < wall
    assert sum(self_time.values()) == pytest.approx(root, rel=1e-9)
    assert all(v >= -1e-9 for v in self_time.values())
    metrics = tracer.layer_metrics(trace)
    assert set(tracer.TIME_METRICS) | set(tracer.COUNT_UNITS) == set(metrics)
