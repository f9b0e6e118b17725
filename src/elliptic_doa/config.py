"""The scenario document: reading it from disk, the run manifest and sweep
record that embed it, the readers of its sections, the sweep axes, and
assignment by a dotted path (what a sweep axis does).

A scenario is a JSON document (kept diffable on disk) with sections:

    name        run label (string)
    seed        master seed; rings and the noise injector derive their
                streams from it unless given their own
    allow_undersampled, force_modes
                optional true or false: open the spatial-sampling gate or
                the mode-count stability gate; the flags of those names
                write true here, and an open gate is recorded, so a record
                re-runs without them
    array       list of rings: the fields of geometry.EllipseSpec, with
                sigma_m or sigma_wavelengths, seed null or absent = master
    grid        the fields of channel.FrequencyGrid
    scene       list of waves: the fields of channel.IncidentWave
    processing  the fields of pipeline.Processing, each optional
    sweep       optional: {"axes": [{"path": ..., "values": [...]}, ...]}

Every section rejects unknown keys, and read_record builds grid, rings,
waves and processing into their records.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields

from . import __version__
from .errors import ConfigError

# the records that embed a config: a run manifest and a sweep record
_KINDS = {"manifest": "elliptic-doa-manifest", "sweep": "elliptic-doa-sweep"}
# the top-level keys of a scenario
SCENARIO_KEYS = ("name", "seed", "allow_undersampled", "force_modes", "array", "grid", "scene",
                 "processing", "sweep")


def load_config(path) -> dict:
    """A scenario, or the config a run manifest or sweep record embeds, nested <= 32 deep."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 (RFC 8259)
            cfg = json.load(fh)
        level = [cfg]
        for _ in range(32):  # level by level (a sweep record nests 8): readers and copies recurse
            level = [item for node in level if isinstance(node, (dict, list))
                     for item in (node.values() if isinstance(node, dict) else node)]
        if any(isinstance(node, (dict, list)) for node in level):
            raise RecursionError
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:  # also the parser's own, on '[' x 200000
        raise ConfigError("config nests more than 32 arrays and objects deep") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    if cfg.get("kind") in _KINDS.values():
        cfg = cfg.get("config")
        if not isinstance(cfg, dict):
            raise ConfigError("manifest carries no embedded config")
    return cfg


def write_record(path, kind: str, config: dict, **rest) -> None:
    """Write a run manifest (kind "manifest") or a sweep record ("sweep"):
    its kind, the package version, the config it embeds and its own fields."""
    record = {"kind": _KINDS[kind], "version": __version__, "config": config, **rest}
    with open(path, "w") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def parse(kind, value, what: str):
    """kind(value), a failed conversion being a ConfigError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge int overflows
        raise ConfigError(f"bad {what}: {exc}") from exc


def real(value) -> float:
    """float(value) that refuses a boolean: JSON's true is not the number 1."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def integral(value) -> int:
    """int(value) that raises on a boolean, a fraction, infinity or NaN: 720.0 is 720."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    number = real(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(number)


def as_object(section: str, value) -> dict:
    """A copy of a section that must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{section} must be an object")
    return dict(value)


def name_of(cfg: dict, default: str) -> str:
    """The scenario's run label, `default` when it gives none."""
    name = cfg.get("name", default)
    if not isinstance(name, str):
        raise ConfigError(f"name must be a string, got {name!r}")
    return name


def check_keys(section: str, value: dict, known, required=()) -> None:
    unknown = set(value) - set(known)
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{section} is missing required key {key!r}")


def read_record(record, section: str, value):
    """A record from a config object: float, int (integral only) and
    Optional[float] fields convert their values, never a boolean, a failure
    naming the field, other fields take them as given, and the record's
    __post_init__ checks domains.  The records' modules postpone
    annotations, so a field's type is its source text."""
    value = as_object(section, value)
    declared = {f.name: f.type for f in fields(record)}
    check_keys(section, value, declared,
               [f.name for f in fields(record) if f.default is MISSING])
    convert = {"float": real, "int": integral,
               "Optional[float]": lambda v: None if v is None else real(v)}
    for name, given in value.items():
        if declared[name] in convert:
            value[name] = parse(convert[declared[name]], given, f"{section}.{name}")
    return record(**value)


def sweep_axes(sweep) -> list:
    """The sweep section's axes, each a list of rows of (path, value) pairs.
    An axis advances "paths" in lockstep, one row of "values" per step
    (eccentricity paired with its mode count); one "path" with scalar
    values reads as "paths" [path] with rows [value]."""
    if not isinstance(sweep, dict) or not isinstance(sweep.get("axes"), (list, tuple)) \
            or not sweep["axes"]:
        raise ConfigError("sweep requires a 'sweep' section with a list of axes")
    check_keys("sweep", sweep, ("axes",))
    axes = []
    for i, ax in enumerate(sweep["axes"]):
        if not isinstance(ax, dict) or not isinstance(ax.get("values", []), (list, tuple)):
            raise ConfigError("each sweep axis must be an object with a list of values")
        check_keys(f"sweep.axes[{i}]", ax, ("path", "paths", "values"))
        if ("path" in ax) == ("paths" in ax):
            raise ConfigError(f"sweep.axes[{i}] needs a path or paths, not both or neither")
        paths, values = ax.get("paths", [ax.get("path")]), ax.get("values", [])
        if "path" in ax:
            values = [[value] for value in values]
        if not isinstance(paths, (list, tuple)) or not values or any(
                not isinstance(v, (list, tuple)) or len(v) != len(paths) for v in values):
            raise ConfigError(f"sweep.axes[{i}] needs non-empty values, one per path")
        if not all(isinstance(path, str) for path in paths):
            raise ConfigError(f"sweep paths must be strings, got {paths!r}")
        axes.append([list(zip(paths, row)) for row in values])
    return axes


def add_axis(cfg: dict, path: str, values: list) -> None:
    """Append a one-path axis to cfg's sweep section, which it makes if absent."""
    sweep = cfg.setdefault("sweep", {})
    if not isinstance(sweep, dict) or not isinstance(sweep.setdefault("axes", []), list):
        raise ConfigError("sweep must be an object with a list of axes")
    sweep["axes"].append({"path": path, "values": values})


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
