"""Mutation fuzzing of the CLI input boundary.

Malformed input of any kind must end in exit code 1 (config), 2 (validation)
or 3 (numeric) with a one-line message, never in a traceback.  The mutations
start from small valid inputs and draw replacement values from a fixed pool
of wrong types, non-finite numbers, small sizes and sizes whose channel or
spectrum would exceed pipeline.MAX_ARRAY_BYTES.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from elliptic_doa import channel, cli, geometry

CONFIG = {
    "name": "fuzz",
    "seed": 3,
    "array": [{"semi_major_m": 0.05, "eccentricity": 0.3, "rotation_deg": 10.0,
               "sensors": 64, "sigma_m": 0.0, "seed": 1}],
    "grid": {"f_start_hz": 28e9, "bandwidth_hz": 2e9, "samples": 8},
    "scene": [{"azimuth_deg": 45.0, "delay_s": 8e-9, "elevation_deg": 80.0,
               "amplitude": 1.0}],
    "processing": {"model": "planewave", "design": "robust", "modes": 21,
                   "mode_threshold": 1e-6, "pad_az": 2, "pad_delay": 2,
                   "exclusion_cells": [2, 2], "exclusion_deg": 5.0, "snr_db": 20.0},
}

VALUES = [None, True, "x", "auto", [], [1], {}, {"a": 1},
          math.nan, math.inf, -math.inf, -1, 0, 0.5, 3, 1e9, 1e16, 1e30]

TOKENS = ["nan", "inf", "-inf", "x", "", "-1", "0", "0.5", "3", "1e3", "1e-300"]

FUZZ = settings(max_examples=100, deadline=None, derandomize=True)


def paths(node, prefix=()):
    """Every key/index path below node (containers included)."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(CONFIG)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(paths(cfg))))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return cfg


def _ingest_inputs():
    arr = geometry.build_concentric([geometry.EllipseSpec(
        semi_major_m=0.05, eccentricity=0.3, sensors=64)])
    grid = channel.FrequencyGrid(f_start_hz=28e9, bandwidth_hz=2e9, samples=8)
    ch = channel.superpose([channel.IncidentWave(azimuth_deg=45.0, delay_s=8e-9)], arr, grid)
    with tempfile.TemporaryDirectory() as tmp:
        geo, chan = Path(tmp) / "geo.csv", Path(tmp) / "chan.csv"
        arr.to_csv(geo)
        channel.export_channel(ch, chan)
        return geo.read_text().splitlines(), chan.read_text().splitlines()


GEOMETRY, CHANNEL = _ingest_inputs()


def run_and_ingest(cfg) -> tuple:
    """Exit codes of the document as a run's scenario, then as an ingest's
    --config on the fixed GEOMETRY and CHANNEL files."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "cfg.json"
        path.write_text(json.dumps(cfg))
        codes = [cli.main(["run", "--config", str(path), "--out-dir", str(tmp / "run")])]
        doc = copy.deepcopy(cfg)
        proc = doc.get("processing")
        if isinstance(proc, dict) and proc.get("snr_db") == CONFIG["processing"]["snr_db"]:
            del proc["snr_db"]  # a measured channel takes no noise: ingest refuses CONFIG's
        path.write_text(json.dumps(doc))
        for name, lines in (("geometry", GEOMETRY), ("channel", CHANNEL)):
            (tmp / f"{name}.csv").write_text("\n".join(lines) + "\n")
        codes.append(cli.main(["ingest", "--geometry", str(tmp / "geometry.csv"), "--channel",
                               str(tmp / "channel.csv"), "--config", str(path),
                               "--out-dir", str(tmp / "ingest")]))
        return tuple(codes)


def test_unmutated_config_runs_and_ingests():
    """The seed of the mutations is valid on both verbs, so a mutation that
    exits non-zero fails for what it changed, not for what it started from."""
    assert run_and_ingest(CONFIG) == (0, 0)


@FUZZ
@given(cfg=mutated_configs())
def test_mutated_configs_exit_cleanly(cfg):
    assert set(run_and_ingest(cfg)) <= {0, 1, 2, 3}


@settings(FUZZ, max_examples=200)
@given(target=st.sampled_from(["geometry", "channel"]),
       op=st.sampled_from(["field", "field", "delete", "duplicate", "truncate"]),
       line=st.integers(0, 10**6), column=st.integers(0, 3), token=st.sampled_from(TOKENS))
@example(target="geometry", op="field", line=5, column=2, token="nan")
def test_mutated_ingest_files_exit_cleanly(target, op, line, column, token):
    """One edit per example, so none masks another: a field replaced by a
    token, or a line deleted, duplicated or cut short."""
    files = {"geometry": list(GEOMETRY), "channel": list(CHANNEL)}
    lines = files[target]
    i = line % len(lines)
    if op == "field":
        fields = lines[i].split(",")
        fields[column] = token
        lines[i] = ",".join(fields)
    elif op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i] = lines[i].rsplit(",", 1)[0]
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / f"{name}.csv").write_text("\n".join(text) + "\n")
        argv = ["ingest", "--geometry", str(Path(tmp) / "geometry.csv"),
                "--channel", str(Path(tmp) / "channel.csv"), "--out-dir", str(Path(tmp) / "out")]
        assert cli.main(argv) in (0, 1, 2, 3)
