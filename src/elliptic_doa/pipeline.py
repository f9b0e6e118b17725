"""Scenario resolution, execution and sweeps.

config reads the scenario document into records.  Resolution pins what
needs the physics ("auto" mode counts, sigma in wavelengths, per-ring
seeds, the spatial-sampling gate, the size bounds) for built and ingested
arrays alike; the filter bank decides its own reduction.  A resolved
config is itself a valid scenario; re-running one reproduces every
numeric output bit for bit, which is what the run manifest records.

Each step adds its wall time (time.perf_counter seconds) to a stage entry:
"resolve" (less its "mode_limit" search), "synthesis" (or, on ingest,
"ingest": reading, parsing and hashing the measured files), "bank",
"folds", "tables", "weights", "products" (see beamform._expand), "fft" (the
joint spectrum), "peaks" and "write".  A run manifest records them under
resolved.stages, a sweep record (sweep_config.json) its totals under stages.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import config
from .beamform import (
    DESIGNS,
    ModeMatrix,
    _lap,
    build_bank,
    expand_array,
    mode_limit,
    search_argument,
)
from .channel import (
    MODELS,
    ChannelMatrix,
    FrequencyGrid,
    IncidentWave,
    add_awgn,
    superpose,
)
from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, DomainError, ValidationError
from .geometry import EllipseSpec, SensorArray, build_concentric, nyquist_audit
from .spectrum import (
    DEFAULT_EXCLUSION_CELLS,
    JointSpectrum,
    PeakReport,
    find_peaks,
    joint_spectrum,
)


@dataclass(frozen=True)
class Processing:
    """The processing section: its keys with their defaults and, once
    resolved, the manifest's section as written (asdict).

    A config gives `modes` as "auto" or a total count and `snr_db` null for
    a noiseless run.  Resolved, `modes` is the odd total 2 M_h + 1 and
    `exclusion_cells` is what find_peaks excludes, its azimuth entry
    taken from exclusion_deg when that is set; exclusion_deg itself stays
    as configured (an int stays an int), so it is not typed float here.
    """

    model: str = "planewave"
    design: str = "robust"
    modes: object = "auto"
    mode_threshold: float = 1e-6
    pad_az: int = 4
    pad_delay: int = 2
    exclusion_cells: tuple = DEFAULT_EXCLUSION_CELLS
    exclusion_deg: object = None
    snr_db: Optional[float] = None

    @property
    def mode_half(self) -> int:
        return self.modes // 2


@dataclass
class ResolvedScenario:
    """A fully concrete run: every auto field pinned, geometry realized."""

    config: dict  # the resolved document: the run's name, and a built array's seed
    array: SensorArray
    grid: FrequencyGrid
    scene: list
    processing: Processing
    mode_limit_value: int
    nyquist: object
    stages: dict  # "resolve" and "mode_limit"


MAX_ARRAY_BYTES = 1 << 30
"""Largest channel (16 P K bytes), spectrum (16 (2M_h+1) pad_az K pad_delay
bytes) or one frequency sample of the filter bank's Bessel table (8 (M_h+2) P
bytes; P bounds the bank's columns) that resolve admits, checked before any
is allocated; with auto modes outside the plain design, the table's bound at
M_h = x_min is checked before the mode-limit search.

A spectrum's 16 bytes a padded bin are what its writers hold: the 8-byte
magnitude map and the 8-byte dB copy `JointSpectrum._magnitudes_db` makes of
it for each writer while the map is alive (the heatmap's 8-bit image adds one
byte a bin as it is cast).  `joint_spectrum` itself holds the map plus one
delay row block of about 1 MiB (with pad_delay = 1, also the 16 n_az K byte
complex azimuth array)."""


def _resolved(t0: float, cfg: dict, resolved_cfg: dict, array: SensorArray,
              grid: FrequencyGrid, scene: list) -> ResolvedScenario:
    """Resolution's tail for a built array (with its scene) and an ingested
    one (no scene): read the gates and processing of the document `cfg`,
    pin processing against the realized array, grid and scene, and add the
    open gates, the grid and processing to `resolved_cfg`."""
    stages = {}
    # heavily perturbed layouts cannot pass a strict consecutive-spacing
    # audit; scenarios that rely on average sampling may opt out themselves,
    # and an open gate is recorded so that its manifest re-runs
    for gate in ("allow_undersampled", "force_modes"):
        given = cfg.get(gate, False)
        if not isinstance(given, bool):
            raise ConfigError(f"{gate} must be true or false, got {given!r}")
        if given:
            resolved_cfg[gate] = True
    proc_cfg = cfg.get("processing")
    proc = config.read_record(Processing, "processing", {} if proc_cfg is None else proc_cfg)
    for key, names in (("model", MODELS), ("design", DESIGNS)):
        if getattr(proc, key) not in names:
            raise ConfigError(f"unknown {key} {getattr(proc, key)!r}")
    if not scene and proc.snr_db is not None:
        raise ConfigError("processing.snr_db must be null on ingest: a measured channel "
                          f"gets no added noise, got {proc.snr_db!r}")

    if proc.modes != "auto":  # a malformed count is reported before the search runs
        total = config.parse(config.integral, proc.modes,
                             "processing.modes ('auto' or an integer)")
        if total < 1:
            raise ConfigError("modes must be positive")
    t = time.perf_counter()
    if proc.modes == "auto" and proc.design != "plain":
        # the robust denominators (the average design's too) put the limit
        # above x_min, so a table too large at M_h = x_min would fail the
        # bound below anyway: refuse it before the search, a one-lane table
        # of about x_min orders (3.3 s at x_min ~ 1e6)
        x_min = search_argument(array, grid, proc.design)
        if 8 * (x_min + 2) * array.total_sensors > MAX_ARRAY_BYTES:
            raise ValidationError(f"processing.modes 'auto' at x_min = {x_min:.6g} with "
                                  f"{array.total_sensors} sensors: the {proc.design} design's "
                                  "mode limit lies above x_min, so one frequency sample of the "
                                  "filter bank's Bessel table would exceed "
                                  f"MAX_ARRAY_BYTES = {MAX_ARRAY_BYTES}")
    limit = mode_limit(array, grid, proc.mode_threshold, design=proc.design)
    _lap(stages, "mode_limit", t)
    if proc.modes == "auto":
        mh = limit
    else:
        mh = total // 2  # symmetric range: requested total rounds up to odd
        if mh > limit and "force_modes" not in resolved_cfg:
            raise ValidationError(
                f"requested modes {total} (half-range {mh}) exceed the stability "
                f"limit {limit} at threshold {proc.mode_threshold}; "
                f"pass --force-modes to override")

    audit = nyquist_audit(array, grid.f_max_hz)
    if not audit.passed and "allow_undersampled" not in resolved_cfg:
        raise ValidationError(
            "spatial sampling fails the half-wavelength criterion "
            f"(max spacing {audit.max_spacing_m:.4g} m > {audit.limit_m:.4g} m); "
            "pass --allow-undersampled to override")

    pad_az, pad_delay = proc.pad_az, proc.pad_delay
    if pad_az < 1 or pad_delay < 1:
        raise ConfigError("pad factors must be >= 1")
    if 16 * (2 * mh + 1) * pad_az * grid.samples * pad_delay > MAX_ARRAY_BYTES:
        raise ValidationError(f"processing.modes ({2 * mh + 1}) x processing.pad_az ({pad_az}) x "
                              f"grid.samples ({grid.samples}) x processing.pad_delay "
                              f"({pad_delay}): the spectrum would exceed "
                              f"MAX_ARRAY_BYTES = {MAX_ARRAY_BYTES}")
    if 8 * (mh + 2) * array.total_sensors > MAX_ARRAY_BYTES:
        raise ValidationError(f"processing.modes ({2 * mh + 1}) x array[*].sensors "
                              f"({array.total_sensors}): one frequency sample of the filter "
                              f"bank's Bessel table would exceed "
                              f"MAX_ARRAY_BYTES = {MAX_ARRAY_BYTES}")
    cells = proc.exclusion_cells  # a string would split into digits: "12" is not (1, 2)
    excl = config.parse(lambda c: tuple(map(config.integral, c)),
                        cells if isinstance(cells, (list, tuple)) else (),
                        "processing.exclusion_cells")
    if len(excl) != 2 or any(v < 0 for v in excl):
        raise ConfigError("exclusion_cells must be two non-negative integers")
    if proc.exclusion_deg is not None:
        # fixed angular window: keeps artifact readings comparable across
        # runs whose auto-selected mode counts (and thus cell sizes) differ
        exclusion_deg = config.parse(config.real, proc.exclusion_deg, "processing.exclusion_deg")
        if not (math.isfinite(exclusion_deg) and exclusion_deg >= 0.0):
            raise DomainError(f"exclusion_deg must be finite and >= 0, got {exclusion_deg}")
        cell_deg = 360.0 / (2 * mh + 1)  # 360 deg already spans the azimuth axis
        excl = (max(1, round(min(exclusion_deg, 360.0) / cell_deg)), excl[1])
    proc = replace(proc, modes=2 * mh + 1, exclusion_cells=excl)
    if proc.model == "spherical" and any(w.distance_m is None for w in scene):
        raise ValidationError("spherical model requires distance_m on every wave")
    resolved_cfg.update(grid=asdict(grid), processing=asdict(proc))
    stages["resolve"] = time.perf_counter() - t0 - stages["mode_limit"]
    return ResolvedScenario(config=resolved_cfg, array=array, grid=grid, scene=scene,
                            processing=proc, mode_limit_value=limit, nyquist=audit,
                            stages=stages)


def _sections(cfg: dict, grid: Optional[FrequencyGrid] = None) -> tuple:
    """The seed, grid, ring specs and waves of a scenario document, each read
    when present (else 0, `grid`, none, none), and its sweep section checked."""
    seed = config.parse(config.integral, cfg.get("seed", 0), "seed")
    if seed < 0:
        raise DomainError(f"seed must be unsigned, got {seed}")
    grid = config.read_record(FrequencyGrid, "grid", cfg["grid"]) if "grid" in cfg else grid
    for key, items in (("array", "ring specs"), ("scene", "waves")):
        if key in cfg and (not isinstance(cfg[key], list) or not cfg[key]):
            raise ConfigError(f"{key} must be a non-empty list of {items}")
    specs = []
    for i, ring in enumerate(cfg.get("array", [])):
        section = f"array[{i}]"
        ring = config.as_object(section, ring)
        sigma_wavelengths = ring.pop("sigma_wavelengths", None)
        if sigma_wavelengths is not None:
            if ring.get("sigma_m"):
                raise ConfigError(f"{section}: give sigma_m or sigma_wavelengths, not both")
            ring["sigma_m"] = SPEED_OF_LIGHT / grid.f_center_hz * config.parse(
                config.real, sigma_wavelengths, f"{section}.sigma_wavelengths")
        if ring.get("seed") is None:
            ring["seed"] = seed
        specs.append(config.read_record(EllipseSpec, section, ring))
    if "sweep" in cfg:
        config.sweep_axes(cfg["sweep"])
    return seed, grid, specs, [config.read_record(IncidentWave, f"scene[{i}]", wave)
                               for i, wave in enumerate(cfg.get("scene", []))]


def realize(cfg: dict) -> tuple:
    """A scenario document read up to its realized array (top-level keys,
    seed, grid, rings, waves, the channel-size bound): (the resolved document
    so far, array, grid, waves).  resolve goes on from there; audit stops."""
    config.check_keys("scenario", cfg, config.SCENARIO_KEYS, required=("array", "grid", "scene"))
    name = config.name_of(cfg, "scenario")
    seed, grid, specs, scene = _sections(cfg)
    if 16 * sum(spec.sensors for spec in specs) * grid.samples > MAX_ARRAY_BYTES:
        raise ValidationError("array[*].sensors x grid.samples: the channel would "
                              f"exceed MAX_ARRAY_BYTES = {MAX_ARRAY_BYTES}")
    resolved_cfg = {"name": name, "seed": seed, "array": [asdict(spec) for spec in specs],
                    "scene": [asdict(w) for w in scene]}
    if "sweep" in cfg:
        resolved_cfg["sweep"] = cfg["sweep"]
    return resolved_cfg, build_concentric(specs), grid, scene


def resolve(cfg: dict) -> ResolvedScenario:
    """Validate a scenario document and pin every derived quantity; its
    allow_undersampled and force_modes keys open the two gates."""
    t0 = time.perf_counter()
    cfg = copy.deepcopy(cfg)
    return _resolved(t0, cfg, *realize(cfg))


def resolve_ingested(array: SensorArray, grid: FrequencyGrid, cfg: dict) -> ResolvedScenario:
    """Resolve a scenario document for an externally measured channel (no
    scene).  It uses name (default "ingest"), the two gates and processing,
    and reads its other sections as resolve does, the grid defaulting to the channel's."""
    t0 = time.perf_counter()
    config.check_keys("scenario", cfg, config.SCENARIO_KEYS)
    _sections(cfg, grid)
    return _resolved(t0, cfg, {"name": config.name_of(cfg, "ingest")}, array, grid, [])


@dataclass
class RunResult:
    """One run's outputs.  `reduction` is the bank's ("none" or
    "symmetric"); `stages` holds the run's stage times, which sum to about
    runtime_s; write_outputs adds "write"."""

    scenario: ResolvedScenario
    spectrum: JointSpectrum
    report: PeakReport
    runtime_s: float
    reduction: str
    bank_unique_evals: int
    bank_dense_weights: int
    stages: dict


def run_channel(scenario: ResolvedScenario, ch: ChannelMatrix, stages=None) -> RunResult:
    """Beamform + transform + peak extraction for an existing channel; the
    result's stages are `stages` (what came before) plus this run's."""
    t0 = time.perf_counter()
    stages = dict(stages or {})
    proc = scenario.processing
    bank = build_bank(ch.array, ch.grid, design=proc.design,
                      mode_half=proc.mode_half, reduction="auto")
    _lap(stages, "bank", t0)
    modes = expand_array(ch, bank, stages=stages)
    t = time.perf_counter()
    spec = joint_spectrum(modes, pad_az=proc.pad_az, pad_delay=proc.pad_delay)
    del modes  # freed before the peak search, which would otherwise raise the max RSS
    t = _lap(stages, "fft", t)
    report = find_peaks(spec, exclusion_cells=proc.exclusion_cells)
    _lap(stages, "peaks", t)
    return RunResult(scenario=scenario, spectrum=spec, report=report,
                     runtime_s=time.perf_counter() - t0, reduction=bank.reduction,
                     bank_unique_evals=bank.unique_eval_count,
                     bank_dense_weights=bank.dense_weight_count, stages=stages)


def run_scenario(scenario: ResolvedScenario) -> RunResult:
    """Full pipeline: synthesize, add noise, beamform, transform, report."""
    t0 = time.perf_counter()
    ch = _synthesize(scenario)
    result = run_channel(scenario, ch, {"synthesis": time.perf_counter() - t0})
    result.runtime_s = time.perf_counter() - t0
    return result


def _synthesize(scenario: ResolvedScenario) -> ChannelMatrix:
    """The scene's channel, plus noise from the scenario's own seed."""
    proc = scenario.processing
    ch = superpose(scenario.scene, scenario.array, scenario.grid, model=proc.model)
    if proc.snr_db is not None:
        ch = add_awgn(ch, proc.snr_db, seed=scenario.config["seed"])
    return ch


def write_outputs(result: RunResult, out_dir, inputs=None) -> list:
    """Write manifest, peak report, spectrum CSV and heatmap; return paths.

    The manifest goes last, so its "write" stage times the other three;
    `inputs` (an ingest's files by bytes and sha256) goes to resolved.inputs."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in ("manifest.json", "peaks.txt", "spectrum.csv", "heatmap.pgm")]
    paths[1].write_text(result.report.to_text() + "\n")
    result.spectrum.export_csv(paths[2])
    result.spectrum.export_pgm(paths[3])
    result.stages["write"] = time.perf_counter() - t0
    sc = result.scenario
    config.write_record(paths[0], "manifest", sc.config, resolved={
        "modes_total": sc.processing.modes,
        "mode_limit": sc.mode_limit_value,
        "reduction": result.reduction,
        "nyquist_max_spacing_m": sc.nyquist.max_spacing_m,
        "nyquist_pass": sc.nyquist.passed,
        "bank_unique_evals": result.bank_unique_evals,
        "runtime_s": result.runtime_s,
        "stages": {**sc.stages, **result.stages},
        **({} if inputs is None else {"inputs": inputs}),
    })
    return paths


SWEEP_BATCH_BYTES = 8 << 20
"""Channel bytes one sweep batch may hold: 7 points of a 720-sensor,
100-sample ring, or a single point of anything larger than the budget."""


def _bank_key(scenario: ResolvedScenario) -> tuple:
    """What a filter bank depends on: realized array, grid and processing."""
    proc = scenario.processing
    return (json.dumps(scenario.config["array"], sort_keys=True), scenario.grid,
            proc.design, proc.mode_half)


def sweep_rows(cfg: dict, stages=None) -> list:
    """Run the scenario once per sweep grid point (cartesian, row-major).

    Returns dict rows in row-major order: the axis values, the peak report
    anchored on the first wave (phi_deg, tau_s, delta_db), the global peak
    (JointSpectrum.peak), and the resolved mode count.

    Every point is resolved before any is computed, so a bad point fails
    first.  Points whose filter bank would be the same (equal resolved
    array section, ring seeds included, grid, design and mode count) form a
    group that builds one bank, which decides its own reduction.  A group runs in batches
    of at most SWEEP_BATCH_BYTES of channel data (at least one point): each
    point's channel, with noise from its own seed, joins a stacked channel
    that one expand_array call turns into mode matrices, so a batch
    evaluates its Bessel tables and filter weights once per frequency.
    The spectrum and its one peak report then run per point.  A batch lets
    go of its channel once expanded, of each point's spectrum once its row
    is written and of its modes at its end, so no array outlives its stage
    and the sweep's peak memory is that of its largest stage, the
    expansion's band chunk (beamform.TABLE_CHUNK_BYTES): the benchmark's
    two-group sweep-fig4a op peaks at 49.8 MB of process memory, against
    58.5 MB with each group's last arrays alive through the next group.
    Every numeric column equals the same reading of a run_scenario spectrum
    of that point alone, bit for bit; runtime_s is the batch's wall time
    divided by its point count.  Determinism comes from per-point seeds in the config, so
    evaluation order carries no state.

    A `stages` dict receives the sweep's stage totals over all points.
    """
    stages = {} if stages is None else stages
    axes = config.sweep_axes(cfg.get("sweep"))
    points, groups, arrays = [], {}, {}
    for combo in itertools.product(*axes):
        assignment = [pair for part in combo for pair in part]
        point = copy.deepcopy(cfg)
        point.pop("sweep", None)
        for path, value in assignment:
            config.set_path(point, path, value)
        scenario = resolve(point)
        for stage, seconds in scenario.stages.items():
            stages[stage] = stages.get(stage, 0.0) + seconds
        key = _bank_key(scenario)
        # equal keys realize equal arrays: keep one per group
        scenario.array = arrays.setdefault(key, scenario.array)
        groups.setdefault(key, []).append(len(points))
        points.append((assignment, scenario))

    rows = [None] * len(points)
    for members in groups.values():
        first = points[members[0]][1]
        shared = first.processing  # the bank's keys; pads and windows stay per point
        t = time.perf_counter()
        bank = build_bank(first.array, first.grid, design=shared.design,
                          mode_half=shared.mode_half, reduction="auto")
        _lap(stages, "bank", t)
        point_bytes = 16 * first.array.total_sensors * first.grid.samples
        size = max(1, SWEEP_BATCH_BYTES // point_bytes)
        for lo in range(0, len(members), size):
            batch = members[lo: lo + size]
            t0 = time.perf_counter()
            values = np.empty((first.array.total_sensors, first.grid.samples, len(batch)),
                              dtype=complex)
            for b, i in enumerate(batch):
                values[..., b] = _synthesize(points[i][1]).values
            _lap(stages, "synthesis", t0)
            modes = expand_array(ChannelMatrix(array=first.array, grid=first.grid,
                                               values=values), bank, stages=stages)
            del values
            for b, i in enumerate(batch):
                assignment, scenario = points[i]
                proc, wave = scenario.processing, scenario.scene[0]
                t = time.perf_counter()
                spec = joint_spectrum(ModeMatrix(values=modes.values[..., b],
                                                 mode_half=modes.mode_half, grid=modes.grid),
                                      pad_az=proc.pad_az, pad_delay=proc.pad_delay)
                t = _lap(stages, "fft", t)
                anchored = find_peaks(spec, expected=(wave.azimuth_deg, wave.delay_s),
                                      exclusion_cells=proc.exclusion_cells)
                peak = spec.peak()
                _lap(stages, "peaks", t)
                rows[i] = {path: value for path, value in assignment}
                rows[i].update({
                    "phi_deg": anchored.main.phi_deg,
                    "tau_s": anchored.main.tau_s,
                    "delta_db": anchored.delta_db,
                    "global_phi_deg": peak.phi_deg,
                    "global_tau_s": peak.tau_s,
                    "modes_total": proc.modes,
                })
                del spec
            del modes
            runtime_s = (time.perf_counter() - t0) / len(batch)
            for i in batch:
                rows[i]["runtime_s"] = runtime_s
    return rows


def write_sweep_csv(rows: list, path) -> int:
    """Write sweep rows to CSV, floats as %.17g and a cell holding a comma or
    a quote quoted; returns the row count."""
    if not rows:
        raise ConfigError("sweep produced no rows")
    cols = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(cols)
        out.writerows([f"{v:.17g}" if isinstance(v, float) else str(v)
                       for v in map(row.get, cols)] for row in rows)
    return len(rows)
