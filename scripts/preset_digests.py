#!/usr/bin/env python3
"""Print SHA-256 digests of the `run` artifacts of the identity presets.

Runs fig3, fig12, fig13 and fig7-cea into a temporary directory and prints
one line per artifact: spectrum.csv, peaks.txt, heatmap.pgm and the manifest
without its runtime_s.  Two commits produce the same numbers exactly when
their outputs diff empty:

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

from elliptic_doa import cli

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


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for preset in PRESETS:
            out = Path(tmp) / preset
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--preset", preset, "--out-dir", str(out)])
            if code != 0:
                print(f"preset_digests: run --preset {preset} exited {code}", file=sys.stderr)
                return code
            for name, digest in digests(out):
                print(f"{preset} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
