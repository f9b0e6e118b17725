"""The two benchmark workloads and the reasons each one exists.

Every op is one CLI invocation of ``python -m elliptic_doa.cli`` in a fresh
process.  Sweep inputs are generated here from the workload seed, as
literal configs, so a change to the shipped presets cannot silently change
what the benchmark measures; the program only ever sees the generated file.

Each workload names the mechanism it exercises and the one it bypasses, so
an optimisation can name a ``{metric, workload}`` pair where it must show
and one where the prediction is "no change".  Shares quoted below are self
time from one traced in-process run of each op on a 2-core x86-64 host with
``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# criterion-02 azimuth axis (degrees) and the two eccentricity rows kept
FIG4A_AZIMUTHS = [float(v) for v in range(-90, 95, 5)]
FIG4A_ROWS = [[0.0, "auto"], [0.7, "auto"]]
FIG4A_STRIDE = 12
FIG4A_POINTS_PER_ROW = 3


def _ring(a, e=0.0, alpha=0.0, sensors=720):
    return {"semi_major_m": a, "eccentricity": e, "rotation_deg": alpha,
            "sensors": sensors, "sigma_m": 0.0}


def fig4a_azimuths(seed: int) -> list:
    """Strided azimuth subset; the seed picks the offset (13 distinct subsets)."""
    offset = seed % (len(FIG4A_AZIMUTHS) - FIG4A_STRIDE * (FIG4A_POINTS_PER_ROW - 1))
    return [FIG4A_AZIMUTHS[offset + FIG4A_STRIDE * j] for j in range(FIG4A_POINTS_PER_ROW)]


def fig4a_config(azimuths: list) -> dict:
    """The criterion-02 sweep (0.5 m ring, 28-30 GHz) cut to e in {0.0, 0.7}."""
    return {
        "name": "bench-fig4a",
        "seed": 0,
        "array": [_ring(0.5)],
        "grid": {"f_start_hz": 28e9, "bandwidth_hz": 2e9, "samples": 100},
        "scene": [{"azimuth_deg": 0.0, "delay_s": 30e-9}],
        "processing": {"modes": 501},
        "sweep": {"axes": [
            {"paths": ["array.*.eccentricity", "processing.modes"],
             "values": [list(r) for r in FIG4A_ROWS]},
            {"path": "scene.0.azimuth_deg", "values": list(azimuths)},
        ]},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exercises: str
    bypasses: str
    kind: str  # "run" (four artifacts) or "sweep" (sweep.csv)
    truth: Optional[tuple]  # (azimuth_deg, delay_s) of the scene, run ops only
    make: Callable[[int], tuple]  # seed -> (CLI args, generated config or None)

    def op_args(self, seed: int, work: Path) -> list:
        """CLI arguments of this workload's op; writes its config into ``work``."""
        args, config = self.make(seed)
        if config is not None:
            path = work / f"{self.name}.json"
            path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
            args = args + ["--config", str(path)]
        return args

    def expected_rows(self, seed: int) -> int:
        """Points of a sweep op: the product of its axis lengths."""
        return math.prod(len(ax["values"]) for ax in self.make(seed)[1]["sweep"]["axes"])


WORKLOADS = {w.name: w for w in [
    Workload(
        name="run-cea",
        why="nine rings, 6480 sensors, symmetric reduction: the headline run_scenario target",
        exercises="phase_mode_expand over eight e=0.9 ellipses plus a circle (~59%), "
                  "quadrant folding, Bessel tables (~14%), export_csv (~23%)",
        bypasses="bank reuse across points (one point per process)",
        kind="run", truth=(55.0, 20e-9),
        make=lambda seed: (["run", "--preset", "fig7-cea"], None)),
    Workload(
        name="sweep-fig4a",
        why="two eccentricity rows of the criterion-02 sweep: points share one filter bank",
        exercises="bank reuse across sweep points (all points of a row share one "
                  "(array, grid, processing) key); expansion ~79%, Bessel tables ~11%; "
                  "find_peaks runs twice per point (~5%)",
        bypasses="artifact writing (no spectrum.csv or heatmap); multi-ring averaging",
        kind="sweep", truth=None,
        make=lambda seed: (["sweep"], fig4a_config(fig4a_azimuths(seed)))),
]}
