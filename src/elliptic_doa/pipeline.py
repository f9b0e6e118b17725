"""Scenario-driven runner: config resolution, pipeline execution, sweeps.

A scenario is a JSON document (kept diffable on disk) with sections:

    name        run label (string)
    seed        master seed; rings and the noise injector derive their
                streams from it unless given their own
    array       list of ring specs: semi_major_m, eccentricity, rotation_deg,
                sensors, sigma_m | sigma_wavelengths, seed (optional)
    grid        f_start_hz, bandwidth_hz, samples
    scene       list of waves: azimuth_deg, delay_s, elevation_deg,
                amplitude, distance_m (null = far field)
    processing  the fields of Processing, each optional
    sweep       optional: {"axes": [{"path": ..., "values": [...]}, ...]}

Resolution turns "auto" fields into concrete numbers (mode counts via the
stability limit, sigma via the band-center wavelength, per-ring seeds) and
validates spatial sampling.  A resolved config is itself a valid scenario;
re-running one reproduces every numeric output bit for bit, which is what
the run manifest records.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import __version__
from .beamform import (
    DESIGNS,
    REDUCTIONS,
    ModeMatrix,
    build_bank,
    expand_array,
    mode_limit,
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

    A config gives `modes` as "auto" or a total count, `reduction` as
    "auto", "none" or "symmetric", and `snr_db` null for a noiseless run.
    Resolved, `modes` is the odd total 2 M_h + 1, `reduction` is not "auto",
    and `exclusion_cells` is what find_peaks excludes, its azimuth entry
    taken from exclusion_deg when that is set; exclusion_deg itself stays
    as configured.
    """

    model: str = "planewave"
    design: str = "robust"
    modes: object = "auto"
    mode_threshold: float = 1e-6
    reduction: str = "auto"
    pad_az: int = 4
    pad_delay: int = 2
    exclusion_cells: tuple = DEFAULT_EXCLUSION_CELLS
    exclusion_deg: Optional[float] = None
    snr_db: Optional[float] = None

    @property
    def mode_half(self) -> int:
        return self.modes // 2


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    if cfg.get("kind") == "elliptic-doa-manifest":
        cfg = cfg.get("config")
        if not isinstance(cfg, dict):
            raise ConfigError("manifest carries no embedded config")
    return cfg


def set_path(cfg: dict, path: str, value) -> None:
    """Assign into a nested config structure.

    Dot-separated path; integer tokens index lists and '*' fans out over a
    whole list ("array.*.eccentricity" retunes every ring).
    """
    tokens = path.split(".")

    def descend(node, toks):
        head, rest = toks[0], toks[1:]
        if head == "*":
            if not isinstance(node, list):
                raise ConfigError(f"'*' needs a list at {path!r}")
            if not rest:
                raise ConfigError(f"cannot assign to '*' directly in {path!r}")
            for item in node:
                descend(item, rest)
            return
        try:
            key = int(head) if isinstance(node, list) else head
            if rest:
                descend(node[key], rest)
            else:
                node[key] = value
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad sweep path {path!r}: {exc}") from exc

    descend(cfg, tokens)


@dataclass
class ResolvedScenario:
    """A fully concrete run: every auto field pinned, geometry realized."""

    name: str
    config: dict
    array: SensorArray
    grid: FrequencyGrid
    scene: list
    processing: Processing
    seed: int
    mode_limit_value: int
    nyquist: object


MAX_ARRAY_BYTES = 1 << 30
"""Largest channel (16 P K bytes), spectrum (16 (2M_h+1) pad_az K pad_delay
bytes) or one frequency sample of the filter bank's Bessel table (8 (M_h+2) P
bytes; P bounds the bank's columns) that resolve admits, checked before any
is allocated."""


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required section {key!r}")
    return cfg[key]


_PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)
"""How reading one config value fails: a missing key, a wrong type, an
unparseable string, or int() of an infinity."""


def _parse(kind, value, what: str):
    """kind(value), a failed conversion being a ConfigError naming the field."""
    try:
        return kind(value)
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _resolve_processing(proc_cfg: dict, array: SensorArray, grid: FrequencyGrid,
                        allow_undersampled: bool, force_modes: bool) -> tuple:
    """Pin every processing knob against a realized array and grid:
    (Processing, stability limit M_h, Nyquist report)."""
    if proc_cfg is not None and not isinstance(proc_cfg, dict):
        raise ConfigError("processing must be an object")
    unknown = set(proc_cfg or {}) - {f.name for f in fields(Processing)}
    if unknown:
        raise ConfigError(f"unknown processing keys: {sorted(unknown)}")
    proc = Processing(**(proc_cfg or {}))
    if proc.model not in MODELS:
        raise ConfigError(f"unknown model {proc.model!r}")
    if proc.design not in DESIGNS:
        raise ConfigError(f"unknown design {proc.design!r}")

    threshold = _parse(float, proc.mode_threshold, "mode_threshold")
    limit = mode_limit(array, grid, threshold, design=proc.design)
    if proc.modes == "auto":
        mh = limit
    else:
        try:
            total = int(proc.modes)
        except _PARSE_ERRORS as exc:
            raise ConfigError(f"modes must be 'auto' or an integer: {exc}") from exc
        if total < 1:
            raise ConfigError("modes must be positive")
        mh = total // 2  # symmetric range: requested total rounds up to odd
        if mh > limit and not force_modes:
            raise ValidationError(
                f"requested modes {total} (half-range {mh}) exceed the stability "
                f"limit {limit} at threshold {threshold}; "
                f"pass --force-modes to override")

    reduction = proc.reduction
    if reduction == "auto":
        specs = [array.ring_spec(i) for i in range(array.ring_count)]
        clean = all(s is not None and s.sigma_m == 0.0 and s.sensors % 4 == 0
                    for s in specs)
        reduction = "symmetric" if (clean and proc.design != "average") else "none"
    elif reduction not in REDUCTIONS:
        raise ConfigError(f"unknown reduction {reduction!r}")

    audit = nyquist_audit(array, grid.f_max_hz)
    if not audit.passed and not allow_undersampled:
        raise ValidationError(
            "spatial sampling fails the half-wavelength criterion "
            f"(max spacing {audit.max_spacing_m:.4g} m > {audit.limit_m:.4g} m); "
            "pass --allow-undersampled to override")

    pad_az = _parse(int, proc.pad_az, "pad_az")
    pad_delay = _parse(int, proc.pad_delay, "pad_delay")
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
    cells = proc.exclusion_cells
    try:  # a string would split into digits: "12" is not (1, 2)
        excl = tuple(int(v) for v in cells) if isinstance(cells, (list, tuple)) else ()
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"exclusion_cells must be two non-negative integers: {exc}") from exc
    if len(excl) != 2 or any(v < 0 for v in excl):
        raise ConfigError("exclusion_cells must be two non-negative integers")
    if proc.exclusion_deg is not None:
        # fixed angular window: keeps artifact readings comparable across
        # runs whose auto-selected mode counts (and thus cell sizes) differ
        exclusion_deg = _parse(float, proc.exclusion_deg, "exclusion_deg")
        if not math.isfinite(exclusion_deg):
            raise DomainError(f"exclusion_deg must be finite, got {exclusion_deg}")
        cell_deg = 360.0 / (2 * mh + 1)
        excl = (max(1, round(exclusion_deg / cell_deg)), excl[1])
    snr_db = None if proc.snr_db is None else _parse(float, proc.snr_db, "snr_db")
    return (replace(proc, modes=2 * mh + 1, mode_threshold=threshold, reduction=reduction,
                    pad_az=pad_az, pad_delay=pad_delay, exclusion_cells=excl, snr_db=snr_db),
            limit, audit)


def resolve(cfg: dict, allow_undersampled: bool = False,
            force_modes: bool = False) -> ResolvedScenario:
    """Validate a raw scenario and pin every derived quantity."""
    cfg = copy.deepcopy(cfg)
    name = cfg.get("name", "scenario")
    if not isinstance(name, str):
        raise ConfigError(f"name must be a string, got {name!r}")
    seed = _parse(int, cfg.get("seed", 0), "seed")
    if seed < 0:
        raise DomainError(f"seed must be unsigned, got {seed}")
    # heavily perturbed layouts cannot pass a strict consecutive-spacing
    # audit; scenarios that rely on average sampling may opt out themselves
    allow_undersampled = allow_undersampled or bool(cfg.get("allow_undersampled", False))

    grid_cfg = _require(cfg, "grid")
    try:
        grid = FrequencyGrid(f_start_hz=float(grid_cfg["f_start_hz"]),
                             bandwidth_hz=float(grid_cfg["bandwidth_hz"]),
                             samples=int(grid_cfg["samples"]))
    except _PARSE_ERRORS as exc:
        raise ConfigError(f"bad grid section: {exc}") from exc

    rings_cfg = _require(cfg, "array")
    if not isinstance(rings_cfg, list) or not rings_cfg:
        raise ConfigError("array must be a non-empty list of ring specs")
    lam_center = SPEED_OF_LIGHT / grid.f_center_hz
    specs = []
    for i, ring in enumerate(rings_cfg):
        if not isinstance(ring, dict):
            raise ConfigError(f"array[{i}] must be an object")
        if ring.get("sigma_wavelengths") is not None and ring.get("sigma_m"):
            raise ConfigError(f"array[{i}]: give sigma_m or sigma_wavelengths, not both")
        try:
            sigma_m = (float(ring["sigma_wavelengths"]) * lam_center
                       if ring.get("sigma_wavelengths") is not None
                       else float(ring.get("sigma_m", 0.0)))
            specs.append(EllipseSpec(
                semi_major_m=float(ring["semi_major_m"]),
                eccentricity=float(ring.get("eccentricity", 0.0)),
                rotation_deg=float(ring.get("rotation_deg", 0.0)),
                sensors=int(ring.get("sensors", 720)),
                sigma_m=sigma_m,
                seed=int(seed if ring.get("seed") is None else ring["seed"])))
        except _PARSE_ERRORS as exc:
            raise ConfigError(f"bad array[{i}] spec: {exc}") from exc
        rings_cfg[i] = asdict(specs[-1])
    if 16 * sum(spec.sensors for spec in specs) * grid.samples > MAX_ARRAY_BYTES:
        raise ValidationError("array[*].sensors x grid.samples: the channel would "
                              f"exceed MAX_ARRAY_BYTES = {MAX_ARRAY_BYTES}")
    array = build_concentric(specs)

    scene_cfg = _require(cfg, "scene")
    if not isinstance(scene_cfg, list) or not scene_cfg:
        raise ConfigError("scene must be a non-empty list of waves")
    scene = []
    for i, wv in enumerate(scene_cfg):
        try:
            scene.append(IncidentWave(
                azimuth_deg=float(wv["azimuth_deg"]),
                delay_s=float(wv["delay_s"]),
                elevation_deg=float(wv.get("elevation_deg", 90.0)),
                amplitude=float(wv.get("amplitude", 1.0)),
                distance_m=None if wv.get("distance_m") is None
                else float(wv["distance_m"])))
        except _PARSE_ERRORS as exc:
            raise ConfigError(f"bad scene[{i}] wave: {exc}") from exc

    proc, limit, audit = _resolve_processing(cfg.get("processing", {}), array, grid,
                                             allow_undersampled=allow_undersampled,
                                             force_modes=force_modes)
    if proc.model == "spherical" and any(w.distance_m is None for w in scene):
        raise ValidationError("spherical model requires distance_m on every wave")

    resolved_cfg = {
        "name": name,
        "seed": seed,
        "array": rings_cfg,
        "grid": asdict(grid),
        "scene": [asdict(w) for w in scene],
        "processing": asdict(proc),
    }
    if allow_undersampled:
        resolved_cfg["allow_undersampled"] = True
    if "sweep" in cfg:
        resolved_cfg["sweep"] = cfg["sweep"]
    return ResolvedScenario(name=name, config=resolved_cfg, array=array, grid=grid,
                            scene=scene, processing=proc, seed=seed,
                            mode_limit_value=limit, nyquist=audit)


def resolve_ingested(array: SensorArray, grid: FrequencyGrid, proc_cfg: dict,
                     name: str = "ingest", allow_undersampled: bool = False,
                     force_modes: bool = False) -> ResolvedScenario:
    """Resolve processing for an externally measured channel (no scene)."""
    proc, limit, audit = _resolve_processing(proc_cfg, array, grid,
                                             allow_undersampled=allow_undersampled,
                                             force_modes=force_modes)
    resolved_cfg = {"name": name, "grid": asdict(grid), "processing": asdict(proc)}
    return ResolvedScenario(name=name, config=resolved_cfg, array=array, grid=grid,
                            scene=[], processing=proc, seed=0,
                            mode_limit_value=limit, nyquist=audit)


@dataclass
class RunResult:
    scenario: ResolvedScenario
    channel: ChannelMatrix
    spectrum: JointSpectrum
    report: PeakReport
    runtime_s: float
    bank_unique_evals: int
    bank_dense_weights: int

    def manifest(self) -> dict:
        sc = self.scenario
        return {
            "kind": "elliptic-doa-manifest",
            "version": __version__,
            "config": sc.config,
            "resolved": {
                "mode_half": sc.processing.mode_half,
                "modes_total": sc.processing.modes,
                "mode_limit": sc.mode_limit_value,
                "reduction": sc.processing.reduction,
                "ring_seeds": [getattr(sc.array.ring_spec(i), "seed", None)
                               for i in range(sc.array.ring_count)],
                "nyquist_max_spacing_m": sc.nyquist.max_spacing_m,
                "nyquist_pass": sc.nyquist.passed,
                "bank_unique_evals": self.bank_unique_evals,
                "bank_dense_weights": self.bank_dense_weights,
                "runtime_s": self.runtime_s,
            },
        }


def run_channel(scenario: ResolvedScenario, ch: ChannelMatrix) -> RunResult:
    """Beamform + transform + peak extraction for an existing channel."""
    t0 = time.perf_counter()
    proc = scenario.processing
    bank = build_bank(ch.array, ch.grid, design=proc.design,
                      mode_half=proc.mode_half, reduction=proc.reduction)
    spec = joint_spectrum(expand_array(ch, bank), pad_az=proc.pad_az, pad_delay=proc.pad_delay)
    return RunResult(scenario=scenario, channel=ch, spectrum=spec,
                     report=find_peaks(spec, exclusion_cells=proc.exclusion_cells),
                     runtime_s=time.perf_counter() - t0,
                     bank_unique_evals=bank.unique_eval_count,
                     bank_dense_weights=bank.dense_weight_count)


def run_scenario(scenario: ResolvedScenario) -> RunResult:
    """Full pipeline: synthesize, add noise, beamform, transform, report."""
    t0 = time.perf_counter()
    result = run_channel(scenario, _synthesize(scenario))
    result.runtime_s = time.perf_counter() - t0
    return result


def _synthesize(scenario: ResolvedScenario) -> ChannelMatrix:
    """The scene's channel, plus noise from the scenario's own seed."""
    proc = scenario.processing
    ch = superpose(scenario.scene, scenario.array, scenario.grid, model=proc.model)
    if proc.snr_db is not None:
        ch = add_awgn(ch, proc.snr_db, seed=scenario.seed)
    return ch


def write_outputs(result: RunResult, out_dir) -> list:
    """Write manifest, peak report, spectrum CSV and heatmap; return paths."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(result.manifest(), indent=2, sort_keys=True) + "\n")
    paths.append(manifest_path)
    peaks_path = out / "peaks.txt"
    peaks_path.write_text(result.report.to_text() + "\n")
    paths.append(peaks_path)
    csv_path = out / "spectrum.csv"
    result.spectrum.export_csv(csv_path)
    paths.append(csv_path)
    pgm_path = out / "heatmap.pgm"
    result.spectrum.export_pgm(pgm_path)
    paths.append(pgm_path)
    return paths


SWEEP_BATCH_BYTES = 8 << 20
"""Channel bytes one sweep batch may hold: 7 points of a 720-sensor,
100-sample ring, or a single point of anything larger than the budget."""


def _bank_key(scenario: ResolvedScenario) -> tuple:
    """What a filter bank depends on: realized array, grid and processing."""
    proc = scenario.processing
    return (json.dumps(scenario.config["array"], sort_keys=True), scenario.grid,
            proc.design, proc.mode_half, proc.reduction)


def sweep_rows(cfg: dict, allow_undersampled: bool = False,
               force_modes: bool = False):
    """Run the scenario once per sweep grid point (cartesian, row-major).

    Yields dict rows in row-major order: the axis values, the peak report
    anchored on the first wave (phi_deg, tau_s, delta_db), the global peak
    (JointSpectrum.peak), and the resolved mode count.

    Every point is resolved before any is computed, so a bad point fails
    first.  Points whose filter bank would be the same (equal resolved
    array section, ring seeds included, grid, design, mode count and
    reduction) form a group that builds one bank.  A group runs in batches
    of at most SWEEP_BATCH_BYTES of channel data (at least one point): each
    point's channel, with noise from its own seed, joins a stacked channel
    that one expand_array call turns into mode matrices, so a batch
    evaluates its Bessel tables and filter weights once per frequency.
    The spectrum and its one peak report then run per point.  Every numeric
    column equals the same reading of a run_scenario spectrum of that point
    alone, bit for bit; runtime_s is the batch's wall time divided by its
    point count.  Determinism comes from per-point seeds in the config, so
    evaluation order carries no state.
    """
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict) or not isinstance(sweep.get("axes"), (list, tuple)) \
            or not sweep["axes"]:
        raise ConfigError("sweep requires a 'sweep' section with a list of axes")
    axes = []
    for ax in sweep["axes"]:
        # an axis is one path with scalar values, or several paths advancing
        # in lockstep ("paths" + rows of values), e.g. eccentricity paired
        # with its mode count
        if not isinstance(ax, dict) or not isinstance(ax.get("values", []), (list, tuple)):
            raise ConfigError("each sweep axis must be an object with a list of values")
        if "paths" in ax:
            paths = ax["paths"]
            values = ax.get("values", [])
            if not isinstance(paths, (list, tuple)) or not values or any(
                    not isinstance(v, (list, tuple)) or len(v) != len(paths) for v in values):
                raise ConfigError("zipped sweep axis needs one value per path")
        elif "path" in ax:
            paths = [ax["path"]]
            values = [[v] for v in ax.get("values", [])]
            if not values:
                raise ConfigError("sweep axis needs non-empty values")
        else:
            raise ConfigError("each sweep axis needs a path (or paths)")
        if not all(isinstance(path, str) for path in paths):
            raise ConfigError(f"sweep paths must be strings, got {paths!r}")
        axes.append([list(zip(paths, row_vals)) for row_vals in values])

    points, groups, arrays = [], {}, {}
    for combo in itertools.product(*axes):
        assignment = [pair for part in combo for pair in part]
        point = copy.deepcopy(cfg)
        point.pop("sweep", None)
        for path, value in assignment:
            set_path(point, path, value)
        scenario = resolve(point, allow_undersampled=allow_undersampled,
                           force_modes=force_modes)
        key = _bank_key(scenario)
        # equal keys realize equal arrays: keep one per group
        scenario.array = arrays.setdefault(key, scenario.array)
        groups.setdefault(key, []).append(len(points))
        points.append((assignment, scenario))

    rows = [None] * len(points)
    for members in groups.values():
        first = points[members[0]][1]
        shared = first.processing  # the bank's keys; pads and windows stay per point
        bank = build_bank(first.array, first.grid, design=shared.design,
                          mode_half=shared.mode_half, reduction=shared.reduction)
        point_bytes = 16 * first.array.total_sensors * first.grid.samples
        size = max(1, SWEEP_BATCH_BYTES // point_bytes)
        for lo in range(0, len(members), size):
            batch = members[lo: lo + size]
            t0 = time.perf_counter()
            values = np.empty((first.array.total_sensors, first.grid.samples, len(batch)),
                              dtype=complex)
            for b, i in enumerate(batch):
                values[..., b] = _synthesize(points[i][1]).values
            modes = expand_array(ChannelMatrix(array=first.array, grid=first.grid,
                                               values=values), bank)
            for b, i in enumerate(batch):
                assignment, scenario = points[i]
                proc, wave = scenario.processing, scenario.scene[0]
                spec = joint_spectrum(ModeMatrix(values=modes.values[..., b],
                                                 mode_half=modes.mode_half, grid=modes.grid),
                                      pad_az=proc.pad_az, pad_delay=proc.pad_delay)
                anchored = find_peaks(spec, expected=(wave.azimuth_deg, wave.delay_s),
                                      exclusion_cells=proc.exclusion_cells)
                peak = spec.peak()
                rows[i] = {path: value for path, value in assignment}
                rows[i].update({
                    "phi_deg": anchored.main.phi_deg,
                    "tau_s": anchored.main.tau_s,
                    "delta_db": anchored.delta_db,
                    "global_phi_deg": peak.phi_deg,
                    "global_tau_s": peak.tau_s,
                    "modes_total": proc.modes,
                })
            runtime_s = (time.perf_counter() - t0) / len(batch)
            for i in batch:
                rows[i]["runtime_s"] = runtime_s
    yield from rows


def write_sweep_csv(rows, path) -> int:
    """Write sweep rows to CSV; returns the row count."""
    rows = list(rows)
    if not rows:
        raise ConfigError("sweep produced no rows")
    cols = list(rows[0].keys())

    def fmt(v):
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row[c]) for c in cols) + "\n")
    return len(rows)
