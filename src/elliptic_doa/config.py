"""Scenario documents on disk: reading one, or the config that a run
manifest or sweep record embeds, and assigning into one by a dotted path
(what a sweep axis does).  pipeline reads the sections into records."""

from __future__ import annotations

import json

from .errors import ConfigError


def load_config(path) -> dict:
    """A scenario, or the config a run manifest or sweep record embeds."""
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
    if cfg.get("kind") in ("elliptic-doa-manifest", "elliptic-doa-sweep"):
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
