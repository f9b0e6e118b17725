"""Command-line front end.

Verbs:
    run     one scenario -> manifest, peak report, spectrum CSV, heatmap
    sweep   scenario sweep section (or --axis flags) -> sweep.csv
    audit   geometry realization + spatial-sampling report only
    ingest  measured geometry CSV + channel CSV -> spectrum outputs
    presets list shipped scenario presets

Exit codes: 0 success, 1 config/parse errors, 2 validation failures,
3 numeric failures inside the pipeline.

`main` is the in-process API: it returns the exit code and changes no
interpreter state, so tests and tracers call it in a running process.
`entry` is the process API, what `python -m elliptic_doa.cli` and the
installed `elliptic-doa` script run: main's exit code, with the heap frozen
before the interpreter shuts down.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from . import __version__
from .channel import ingest_channel
from .config import add_axis, as_object, load_config, name_of, write_record
from .errors import ConfigError, NumericError, ValidationError
from .geometry import SensorArray, nyquist_audit
from .pipeline import (
    realize,
    resolve,
    resolve_ingested,
    run_channel,
    run_scenario,
    sweep_rows,
    write_outputs,
    write_sweep_csv,
)
from .presets import PRESETS, get_preset


def _add_flags(p: argparse.ArgumentParser, scenario: bool = True, run: bool = True) -> None:
    """The flags a verb reads: a scenario and its seed, and what running one takes."""
    if scenario:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", help="scenario JSON path (or a run manifest or sweep record)")
        src.add_argument("--preset", help="name of a shipped preset")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
    if run:
        p.add_argument("--out-dir", default=None, help="output directory "
                       "(default: runs/<scenario name>)")
        p.add_argument("--allow-undersampled", action="store_true",
                       help="run even if spatial sampling fails the half-wavelength check")
        p.add_argument("--force-modes", action="store_true",
                       help="run even if the requested mode count exceeds the stability limit")
        p.add_argument("--pad-az", type=int, default=None, help="azimuth zero-pad factor")
        p.add_argument("--pad-delay", type=int, default=None, help="delay zero-pad factor")


def _scenario(args) -> dict:
    """The document a verb runs, every flag it was given written in over the
    document's key (the gates as top-level true), so its record re-runs
    without them."""
    flags = vars(args)
    cfg = get_preset(args.preset) if flags.get("preset") else (
        load_config(args.config) if args.config else {})
    for key in ("seed", "name"):
        if flags.get(key) is not None:
            cfg[key] = flags[key]
    for gate in ("allow_undersampled", "force_modes"):
        if flags.get(gate):
            cfg[gate] = True
    proc = cfg.get("processing")
    cfg["processing"] = proc = as_object("processing", {} if proc is None else proc)
    for key in ("pad_az", "pad_delay"):
        if flags.get(key) is not None:
            proc[key] = flags[key]
    return cfg


def _out_dir(args, name: str) -> Path:
    """The output directory; a file in its way is an error before any work runs."""
    out = Path(args.out_dir) if args.out_dir else Path("runs") / name
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        raise ConfigError(f"cannot make output directory {out}: {blocker} is not a directory")
    return out


def _write_run(result, out: Path, summary: str, inputs=None) -> int:
    """Write a run's artifacts; print the summary, the peak and the paths."""
    paths = write_outputs(result, out, inputs)
    report = result.report
    print(f"{summary}\npeak: phi={report.main.phi_deg:.6g} deg "
          f"tau={report.main.tau_s * 1e9:.6g} ns delta={report.delta_db:.2f} dB")
    print("\n".join(f"wrote {p}" for p in paths))
    return 0


def _cmd_run(args) -> int:
    scenario = resolve(_scenario(args))
    name = scenario.config["name"]
    out = _out_dir(args, name)
    result = run_scenario(scenario)
    return _write_run(result, out, f"{name}: modes={scenario.processing.modes} "
                      f"reduction={result.reduction} runtime={result.runtime_s:.2f}s")


def _cmd_sweep(args) -> int:
    cfg = _scenario(args)
    for spec in args.axis or []:
        if "=" not in spec:
            raise ConfigError(f"--axis wants PATH=v1,v2,...: got {spec!r}")
        path, values = spec.split("=", 1)
        try:
            parsed = [json.loads(v) for v in values.split(",")]
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--axis values must be JSON scalars: {spec!r} ({exc.msg})") from exc
        add_axis(cfg, path, parsed)
    out = _out_dir(args, name_of(cfg, "sweep"))
    stages = {}
    rows = sweep_rows(cfg, stages=stages)
    t0 = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    n = write_sweep_csv(rows, csv_path)
    stages["write"] = time.perf_counter() - t0
    write_record(out / "sweep_config.json", "sweep", cfg, stages=stages)
    print(f"wrote {csv_path} ({n} rows)")
    return 0


def _cmd_audit(args) -> int:
    _, array, grid, _ = realize(_scenario(args))
    report = nyquist_audit(array, grid.f_max_hz if args.f_max is None else args.f_max)
    print(report.to_text())
    if args.export_geometry:
        array.to_csv(args.export_geometry)
        print(f"wrote {args.export_geometry}")
    return 0 if report.passed else 2


def _cmd_ingest(args) -> int:
    t0 = time.perf_counter()
    array = SensorArray.from_csv(args.geometry)
    ch = ingest_channel(args.channel, array)
    import hashlib  # here, not at the top: it loads libcrypto, 3.5 MB RSS in every verb
    inputs = {}  # what the manifest cannot embed: the measured files, by size and digest
    for role in ("geometry", "channel"):
        data = Path(getattr(args, role)).read_bytes()
        inputs[role] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    del data  # the channel file's bytes, not to be held through the run
    ingest_s = time.perf_counter() - t0
    scenario = resolve_ingested(array, ch.grid, _scenario(args))
    name = scenario.config["name"]
    out = _out_dir(args, name)
    # the "ingest" stage (reading, parsing and hashing the two files) counts
    # in runtime_s, as synthesis does in a run's
    result = run_channel(scenario, ch, {"ingest": ingest_s})
    result.runtime_s += ingest_s
    return _write_run(result, out, f"{name}: sensors={array.total_sensors} "
                      f"K={ch.grid.samples} modes={scenario.processing.modes}", inputs)


def _cmd_presets(_args) -> int:
    for name in sorted(PRESETS):
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="elliptic-doa",
                                 description="Joint azimuth/delay estimation "
                                             "with wideband ring arrays")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    _add_flags(run_p)
    run_p.set_defaults(fn=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scenario sweep")
    _add_flags(sweep_p)
    sweep_p.add_argument("--axis", action="append",
                         help="extra axis PATH=v1,v2,... (JSON scalars)")
    sweep_p.set_defaults(fn=_cmd_sweep)

    audit_p = sub.add_parser("audit", help="geometry / spatial sampling audit")
    _add_flags(audit_p, run=False)
    audit_p.add_argument("--f-max", type=float, default=None,
                         help="audit frequency (default: top of the grid)")
    audit_p.add_argument("--export-geometry", default=None,
                         help="also write the realized sensor CSV here")
    audit_p.set_defaults(fn=_cmd_audit)

    ingest_p = sub.add_parser("ingest", help="process a measured channel")
    _add_flags(ingest_p, scenario=False)
    ingest_p.add_argument("--geometry", required=True, help="sensor CSV (ring,p,x_m,y_m)")
    ingest_p.add_argument("--channel", required=True, help="channel CSV (p,f_hz,re,im)")
    ingest_p.add_argument("--config", default=None, help="optional scenario JSON: "
                          "its name, gates and processing section are read")
    ingest_p.add_argument("--name", default=None, help="run label (default: the "
                          "config's name, else ingest)")
    ingest_p.set_defaults(fn=_cmd_ingest)

    presets_p = sub.add_parser("presets", help="list shipped presets")
    presets_p.set_defaults(fn=_cmd_presets)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an output path that cannot be written
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Run `main` on the process's argv and exit with its code.

    `gc.freeze()` first moves every tracked object (about 22k, mostly numpy's
    and the package's) to the permanent generation, which the interpreter's
    final collections skip (a `run --preset fig7-cea` process shuts down in
    9 ms instead of 32 on a 2-core x86-64 host).  It runs in a `finally`, so
    argparse's exits (--help, --version, usage errors) freeze too.  Shutdown
    itself stays the normal one: atexit handlers run and buffered files are
    flushed.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
