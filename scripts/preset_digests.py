#!/usr/bin/env python3
"""Print SHA-256 digests of the `run` artifacts of the identity presets.

Runs fig3, fig12, fig13 and fig7-cea into a temporary directory and prints
one line per artifact: spectrum.csv, peaks.txt, heatmap.pgm and the manifest
without its runtime_s.  Then it exports fig13's geometry and channel,
`ingest`s them with fig13's processing section, and prints the same four
digests for that run.  Then comes the digest of a small noisy sweep's
sweep.csv without its runtime_s column (fig3's ring, e in {0.0, 0.7} x three
azimuths, snr_db 10), which reaches the batched-sweep and noise paths.  Then
come the four digests of a fig12 run whose processing section sets every key
to a value other than its default, so each field of the manifest's
processing section is pinned.  Last comes the sweep.csv digest of a
noiseless two-row fig4a sweep at azimuths -45, 0, 45 and 90: its e = 0 rows
at +-45 degrees are exact half-bin ties, so the tie rule decides both their
anchored and their global peaks.  Two commits produce the same numbers
exactly when their outputs diff empty:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/preset_digests.py > a.txt

(Outputs are compared with one BLAS thread: the thread count may move the
last printed digits.)
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

from elliptic_doa import channel, cli, pipeline
from elliptic_doa.presets import get_preset

PRESETS = ("fig3", "fig12", "fig13", "fig7-cea")
ARTIFACTS = ("spectrum.csv", "peaks.txt", "heatmap.pgm")


def digests(out: Path) -> list:
    """(artifact, sha256) pairs of one run directory."""
    pairs = [(name, hashlib.sha256((out / name).read_bytes()).hexdigest())
             for name in ARTIFACTS]
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["resolved"]["runtime_s"]
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
    """sha256 of sweep.csv with its runtime_s column dropped."""
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]
    col = rows[0].index("runtime_s")
    text = "".join(",".join(row[:col] + row[col + 1:]) + "\n" for row in rows)
    return [("sweep-without-runtime", hashlib.sha256(text.encode()).hexdigest())]


def processing_argv(tmp: Path) -> list:
    """`run` arguments for fig12 with every processing key off its default."""
    cfg = get_preset("fig12")
    for wave in cfg["scene"]:
        wave["distance_m"] = 10.0
    # exclusion_deg is an int: the manifest keeps the value as configured
    cfg["processing"] = {"model": "spherical", "design": "average", "modes": 80,
                         "mode_threshold": 1e-4, "reduction": "none", "pad_az": 2,
                         "pad_delay": 3, "exclusion_cells": [4, 6], "exclusion_deg": 9,
                         "snr_db": 20.0}
    defaults = {f.name: f.default for f in fields(pipeline.Processing)}
    assert defaults.keys() == cfg["processing"].keys()
    assert all(value != defaults[key] for key, value in cfg["processing"].items())
    (tmp / "processing-run.json").write_text(json.dumps(cfg))
    return ["run", "--config", str(tmp / "processing-run.json")]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(preset, ["run", "--preset", preset], digests) for preset in PRESETS]
        runs.append(("fig13-ingest", ingest_argv(Path(tmp), "fig13"), digests))
        runs.append(("fig3-noisy-sweep", sweep_argv(Path(tmp), "fig3", [-45.0, 20.0, 90.0], 10.0),
                     sweep_digests))
        runs.append(("fig12-processing", processing_argv(Path(tmp)), digests))
        runs.append(("fig4a-tie-sweep", sweep_argv(Path(tmp), "fig4a", [-45.0, 0.0, 45.0, 90.0]),
                     sweep_digests))
        for label, argv, digest_of in runs:
            out = Path(tmp) / label
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out-dir", str(out)])
            if code != 0:
                print(f"preset_digests: {label} exited {code}", file=sys.stderr)
                return code
            for name, digest in digest_of(out):
                print(f"{label} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
