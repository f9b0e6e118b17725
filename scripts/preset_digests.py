#!/usr/bin/env python3
"""Print SHA-256 digests of the `run` artifacts of the identity presets.

Runs fig3, fig12, fig13 and fig7-cea into a temporary directory and prints
one line per artifact: spectrum.csv, peaks.txt, heatmap.pgm and the manifest
without its runtime_s and stages (wall times).  Then it exports fig13's
geometry and channel, `ingest`s them with fig13's processing section, and
prints the same four digests for that run.  Then comes the digest of a small noisy sweep's
sweep.csv without its runtime_s column (fig3's ring, e in {0.0, 0.7} x three
azimuths, snr_db 10), which reaches the batched-sweep and noise paths.  Then
come the four digests of a fig12 run whose processing section sets every key
to a value other than its default, so each field of the manifest's
processing section is pinned.  Then comes the sweep.csv digest of a
noiseless two-row fig4a sweep at azimuths -45, 0, 45 and 90: its e = 0 rows
at +-45 degrees are exact half-bin ties, so the tie rule decides both their
anchored and their global peaks.  Last come the four digests of fig12 with
its one ring rotated by 90 degrees, a lone rotated folded ring, whose bank
radii and phase tables come from its shape at rotation 0, and the four of
fig3 with its ring rotated by 30 degrees, a rotated folded circle, whose
FFT modes take their rotation from e^{jm alpha} alone.  Two commits
produce the same numbers exactly when their outputs diff empty:

    PYTHONPATH=src python scripts/preset_digests.py > a.txt

`--check FILE` also compares the lines with FILE, whose "# host" lines name
what the digests depend on besides the code: the numpy and BLAS versions and
the SIMD features numpy dispatches on.  If this host's facts equal FILE's, a
line that differs (or is missing or extra) fails the check and is named;
otherwise the check prints "not comparable" and passes.
scripts/preset_digests.txt holds the expected lines; a change that moves
numbers on purpose replaces its digest lines.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy

from elliptic_doa import channel, cli, pipeline
from elliptic_doa.presets import get_preset

PRESETS = ("fig3", "fig12", "fig13", "fig7-cea")
ARTIFACTS = ("spectrum.csv", "peaks.txt", "heatmap.pgm")


def digests(out: Path) -> list:
    """(artifact, sha256) pairs of one run directory."""
    pairs = [(name, hashlib.sha256((out / name).read_bytes()).hexdigest())
             for name in ARTIFACTS]
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["resolved"]["runtime_s"], manifest["resolved"]["stages"]
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    pairs.append(("manifest-without-runtime", hashlib.sha256(text.encode()).hexdigest()))
    return pairs


def ingest_argv(tmp: Path, preset: str) -> list:
    """Export a preset's geometry and noiseless channel; `ingest` arguments for them."""
    cfg = get_preset(preset)
    scenario = pipeline.resolve(cfg)
    scenario.array.to_csv(tmp / "geometry.csv")
    channel.export_channel(channel.superpose(scenario.scene, scenario.array, scenario.grid,
                                             model=scenario.processing.model), tmp / "channel.csv")
    (tmp / "processing.json").write_text(json.dumps({"processing": cfg["processing"]}))
    return ["ingest", "--geometry", str(tmp / "geometry.csv"), "--channel",
            str(tmp / "channel.csv"), "--config", str(tmp / "processing.json")]


def sweep_argv(tmp: Path, preset: str, azimuths: list, snr_db=None) -> list:
    """`sweep` arguments for a two-row sweep on a preset's ring: e in
    {0.0, 0.7} at auto modes, times the given azimuths."""
    cfg = get_preset(preset)
    cfg["processing"]["snr_db"] = snr_db
    cfg["sweep"] = {"axes": [
        {"paths": ["array.*.eccentricity", "processing.modes"],
         "values": [[0.0, "auto"], [0.7, "auto"]]},
        {"path": "scene.0.azimuth_deg", "values": azimuths},
    ]}
    path = tmp / f"{preset}-sweep.json"
    path.write_text(json.dumps(cfg))
    return ["sweep", "--config", str(path)]


def sweep_digests(out: Path) -> list:
    """sha256 of sweep.csv with its runtime_s column dropped, the rows read
    and written back as CSV, so that a quoted cell (an axis value with a
    comma, such as "[4, 6]") stays one cell."""
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("runtime_s")
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(row[:col] + row[col + 1:] for row in rows)
    return [("sweep-without-runtime", hashlib.sha256(text.getvalue().encode()).hexdigest())]


def processing_argv(tmp: Path) -> list:
    """`run` arguments for fig12 with every processing key off its default."""
    cfg = get_preset("fig12")
    for wave in cfg["scene"]:
        wave["distance_m"] = 10.0
    # exclusion_deg is an int: the manifest keeps the value as configured
    cfg["processing"] = {"model": "spherical", "design": "average", "modes": 80,
                         "mode_threshold": 1e-4, "pad_az": 2, "pad_delay": 3,
                         "exclusion_cells": [4, 6], "exclusion_deg": 9, "snr_db": 20.0}
    defaults = {f.name: f.default for f in fields(pipeline.Processing)}
    assert defaults.keys() == cfg["processing"].keys()
    assert all(value != defaults[key] for key, value in cfg["processing"].items())
    (tmp / "processing-run.json").write_text(json.dumps(cfg))
    return ["run", "--config", str(tmp / "processing-run.json")]


def rotated_argv(tmp: Path, preset: str, degrees: float) -> list:
    """`run` arguments for a one-ring preset with its ring rotated."""
    cfg = get_preset(preset)
    (ring,) = cfg["array"]
    ring["rotation_deg"] = degrees
    path = tmp / f"{preset}-rotated-run.json"
    path.write_text(json.dumps(cfg))
    return ["run", "--config", str(path)]


def host_facts() -> list:
    """The "# host" lines: what the digests depend on besides the code."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy that only prints its build config
        blas = "unknown"
    simd = list(umath.__cpu_baseline__) + [
        name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return [f"# host numpy {numpy.__version__}", f"# host blas {blas}",
            f"# host simd {' '.join(simd)}"]


def check(expected_text: str, facts: list, lines: list) -> tuple:
    """(exit code, verdict) of digest lines against an expected file's text."""
    expected = expected_text.splitlines()
    want_facts = [line for line in expected if line.startswith("# host ")]
    if want_facts != facts:
        pairs = [f"{here!r} here, {there!r} expected"
                 for here, there in zip(facts, want_facts) if here != there]
        return 0, f"not comparable: {'; '.join(pairs) or 'the host facts differ'}"
    want = dict(line.rsplit(" ", 1) for line in expected
                if line.strip() and not line.startswith("#"))
    got = dict(line.rsplit(" ", 1) for line in lines)
    differ = [key for key in dict.fromkeys([*want, *got]) if want.get(key) != got.get(key)]
    if differ:
        return 1, f"{len(differ)} lines differ: {', '.join(differ)}"
    return 0, f"all {len(want)} lines match"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", metavar="FILE", help="compare the lines with FILE's")
    args = ap.parse_args(argv)
    expected = Path(args.check).read_text() if args.check else None
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(preset, ["run", "--preset", preset], digests) for preset in PRESETS]
        runs.append(("fig13-ingest", ingest_argv(Path(tmp), "fig13"), digests))
        runs.append(("fig3-noisy-sweep", sweep_argv(Path(tmp), "fig3", [-45.0, 20.0, 90.0], 10.0),
                     sweep_digests))
        runs.append(("fig12-processing", processing_argv(Path(tmp)), digests))
        runs.append(("fig4a-tie-sweep", sweep_argv(Path(tmp), "fig4a", [-45.0, 0.0, 45.0, 90.0]),
                     sweep_digests))
        runs.append(("fig12-rot90", rotated_argv(Path(tmp), "fig12", 90.0), digests))
        runs.append(("fig3-rot30", rotated_argv(Path(tmp), "fig3", 30.0), digests))
        for label, argv, digest_of in runs:
            out = Path(tmp) / label
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out-dir", str(out)])
            if code != 0:
                print(f"preset_digests: {label} exited {code}", file=sys.stderr)
                return code
            for name, digest in digest_of(out):
                lines.append(f"{label} {name} {digest}")
                print(lines[-1])
    if expected is None:
        return 0
    code, verdict = check(expected, host_facts(), lines)
    print(f"preset_digests: {verdict}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
