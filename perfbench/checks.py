"""Output checks applied to every op.

An op passes when its process exited 0 and its artifacts exist and parse
(four files for ``run``, ``sweep.csv`` for ``sweep``), the global main peak
of a ``run`` sits on the scene's (azimuth, delay) bin, and the values that
``reference.json`` recorded when the benchmark was defined still hold within the
tolerances below.  Points with no recorded reference get the structural
checks only.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# delta_db tolerates reordered floating-point sums (batched GEMMs, FFT-based
# expansion); peak positions are bin centres and must match to print precision
TOLERANCE = {"delta_db": 1e-3, "phi_deg": 1e-7, "tau_s": 1e-17}
EXACT = ("modes_total",)

RESULT_COLUMNS = ("phi_deg", "tau_s", "delta_db", "global_phi_deg", "global_tau_s",
                  "modes_total", "runtime_s")
CSV_HEADER = "phi_deg,tau_s,mag_db"

_PEAK = re.compile(r"^main: phi_deg=(\S+) tau_s=(\S+) mag=(\S+)$", re.M)
_DELTA = re.compile(r"^delta_db=(\S+)$", re.M)


class CheckError(Exception):
    pass


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def parse_peaks(text: str) -> dict:
    main, delta = _PEAK.search(text), _DELTA.search(text)
    if not main or not delta:
        raise CheckError("peaks.txt lacks a main peak or delta_db line")
    return {"phi_deg": float(main.group(1)), "tau_s": float(main.group(2)),
            "delta_db": float(delta.group(1))}


def run_values(out_dir: Path) -> dict:
    """Peak values and grid shape of one ``run`` op; checks the four artifacts parse."""
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        vals = parse_peaks((out_dir / "peaks.txt").read_text())
        proc = manifest["config"]["processing"]
        vals["modes_total"] = int(manifest["resolved"]["modes_total"])
        n_az = vals["modes_total"] * int(proc["pad_az"])
        n_delay = int(manifest["config"]["grid"]["samples"]) * int(proc["pad_delay"])
        bandwidth = float(manifest["config"]["grid"]["bandwidth_hz"])
        csv = (out_dir / "spectrum.csv").read_bytes()
        pgm = (out_dir / "heatmap.pgm").read_bytes()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"artifact missing or malformed: {exc}") from exc
    _check_csv(csv, n_az * n_delay)
    _check_pgm(pgm, n_az, n_delay)
    vals["az_bin_deg"] = 360.0 / n_az
    vals["delay_bin_s"] = 1.0 / (int(proc["pad_delay"]) * bandwidth)
    return vals


def _check_csv(data: bytes, rows: int) -> None:
    lines = data.split(b"\n")
    if lines[0] != CSV_HEADER.encode() or lines[-1] != b"":
        raise CheckError("spectrum.csv header or final newline is wrong")
    if len(lines) - 2 != rows:
        raise CheckError(f"spectrum.csv has {len(lines) - 2} rows, expected {rows}")
    for line in (lines[1], lines[-2]):
        try:
            phi, tau, mag = (float(v) for v in line.split(b","))
        except ValueError:
            raise CheckError(f"spectrum.csv row does not parse: {line!r}") from None
        if not (0.0 <= phi < 360.0 and tau >= 0.0 and mag <= 0.0):
            raise CheckError(f"spectrum.csv row out of range: {line!r}")


def _check_pgm(data: bytes, n_az: int, n_delay: int) -> None:
    head = data.split(b"\n", 4)
    if head[0] != b"P5" or len(head) < 5:
        raise CheckError("heatmap.pgm is not a binary graymap")
    if head[3].split() != [str(n_delay).encode(), str(n_az).encode()] or head[4][:4] != b"255\n":
        raise CheckError("heatmap.pgm dimensions do not match the spectrum")
    pixels = head[4][4:]
    if len(pixels) != n_az * n_delay or max(pixels) != 255:
        raise CheckError("heatmap.pgm pixel payload is wrong")


def sweep_rows(out_dir: Path) -> dict:
    """``sweep.csv`` rows keyed by their normalised axis values."""
    try:
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        cols = lines[0].split(",")
        axes = [c for c in cols if c not in RESULT_COLUMNS]
        rows = {}
        for line in lines[1:]:
            cells = dict(zip(cols, line.split(",")))
            key = _row_key(cells[a] for a in axes)
            rows[key] = {c: float(cells[c]) for c in RESULT_COLUMNS}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise CheckError(f"sweep.csv missing or malformed: {exc}") from exc
    return rows


def _row_key(values) -> str:
    def norm(v):
        try:
            return repr(float(v))
        except ValueError:
            return str(v)
    return "|".join(norm(v) for v in values)


def _compare(got: dict, ref: dict, where: str) -> None:
    for name, tol in TOLERANCE.items():
        if name in ref and not abs(got[name] - ref[name]) <= tol:
            raise CheckError(f"{where}: {name} {got[name]!r} differs from reference {ref[name]!r}")
    for name in EXACT:
        if name in ref and got[name] != ref[name]:
            raise CheckError(f"{where}: {name} {got[name]!r} != reference {ref[name]!r}")


def check_op(workload, seed: int, out_dir: Path, reference: dict) -> None:
    """Raise CheckError unless the op's outputs are complete and correct."""
    ref = reference.get(workload.name, {})
    if workload.kind == "run":
        vals = run_values(out_dir)
        az, tau = workload.truth
        d_az = abs((vals["phi_deg"] - az + 180.0) % 360.0 - 180.0)
        if d_az > vals["az_bin_deg"] / 2 or abs(vals["tau_s"] - tau) > vals["delay_bin_s"] / 2:
            raise CheckError(f"main peak ({vals['phi_deg']}, {vals['tau_s']}) is off the "
                             f"scene bin ({az}, {tau})")
        if "op" in ref:
            _compare(vals, ref["op"], workload.name)
        return
    rows = sweep_rows(out_dir)
    expected = workload.expected_rows(seed)
    if len(rows) != expected:
        raise CheckError(f"sweep.csv has {len(rows)} distinct points, expected {expected}")
    for key, row in rows.items():
        if not all(math.isfinite(v) for v in row.values()) or row["modes_total"] < 1:
            raise CheckError(f"sweep row {key} holds non-finite or empty values")
        if key in ref.get("rows", {}):
            _compare(row, ref["rows"][key], f"{workload.name} row {key}")
