#!/usr/bin/env python3
"""Print SHA-256 digests of the `run` artifacts of the identity presets.

Runs fig3, fig12, fig13 and fig7-cea into a temporary directory and prints
one line per artifact: spectrum.csv, peaks.txt, heatmap.pgm and the manifest
without its runtime_s.  Then it exports fig13's geometry and channel,
`ingest`s them with fig13's processing section, and prints the same four
digests for that run.  Last comes the digest of a small noisy sweep's
sweep.csv without its runtime_s column (fig3's ring, e in {0.0, 0.7} x three
azimuths, snr_db 10), which reaches the batched-sweep and noise paths.  Two
commits produce the same numbers exactly when their outputs diff empty:

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
                                             model=scenario.model), tmp / "channel.csv")
    (tmp / "processing.json").write_text(json.dumps({"processing": cfg["processing"]}))
    return ["ingest", "--geometry", str(tmp / "geometry.csv"), "--channel",
            str(tmp / "channel.csv"), "--config", str(tmp / "processing.json")]


def sweep_argv(tmp: Path) -> list:
    """`sweep` arguments for a noisy two-row sweep on fig3's ring."""
    cfg = get_preset("fig3")
    cfg["processing"]["snr_db"] = 10.0
    cfg["sweep"] = {"axes": [
        {"paths": ["array.*.eccentricity", "processing.modes"],
         "values": [[0.0, "auto"], [0.7, "auto"]]},
        {"path": "scene.0.azimuth_deg", "values": [-45.0, 20.0, 90.0]},
    ]}
    (tmp / "sweep.json").write_text(json.dumps(cfg))
    return ["sweep", "--config", str(tmp / "sweep.json")]


def sweep_digests(out: Path) -> list:
    """sha256 of sweep.csv with its runtime_s column dropped."""
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()]
    col = rows[0].index("runtime_s")
    text = "".join(",".join(row[:col] + row[col + 1:]) + "\n" for row in rows)
    return [("sweep-without-runtime", hashlib.sha256(text.encode()).hexdigest())]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(preset, ["run", "--preset", preset], digests) for preset in PRESETS]
        runs.append(("fig13-ingest", ingest_argv(Path(tmp), "fig13"), digests))
        runs.append(("fig3-noisy-sweep", sweep_argv(Path(tmp)), sweep_digests))
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
