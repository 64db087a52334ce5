"""JSON run configuration: strict schema, line-anchored errors, canonical hash.

A single JSON file drives every CLI command.  A run is configured by its
problem (`params`), its grid, its seed and the inputs of each command; the
solver tolerances are module constants (`constants`, `solver`), not keys.
Each block has one table mapping every accepted key to its accepted type or
choices: unknown keys and values of the wrong type are rejected, naming the
offending line when it can be located in the source text.  The model
parameters are validated before any computation, and the canonical
serialization of the parsed document is hashed so outputs can be tied to the
exact configuration that produced them.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .grid import GridDomain, build_grid
from .params import ModelParams


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# accepted value kinds: (description, test); a tuple of strings in a key table is a choice
KINDS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _is_number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
}

BLOCKS = {
    "params": {"n": int, "p": float, "s": float, "q": float, "alpha": float, "beta": float,
               "lambda": float, "mu": float},
    "grid": {"n": int, "m": int, "box_length": float, "collar_factor": float, "shape": ("box", "ball")},
    "tolerances": {"quotient_flat": float},
    "project": {"u": str, "v": str},
    "bubble_scan": {"delta": float, "theta": float, "eps_list": list, "lambda": float, "mu": float,
                    "method": ("lattice", "quadrature"), "s_d": float, "s_ab_d": float},
    "curves": {"u": str, "v": str, "seeded": bool, "t_lo": float, "t_hi": float, "samples": int},
}
TOP_KEYS = set(BLOCKS) | {"seeds"}
# value ranges, checked after the kinds: (block, key) -> (test, description)
RANGES = {
    ("tolerances", "quotient_flat"): (lambda v: v >= 0, "at least 0"),
    ("bubble_scan", "theta"): (lambda v: v > 1, "above 1"),
    ("bubble_scan", "eps_list"): (len, "a non-empty list"),
    ("bubble_scan", "lambda"): (lambda v: v >= 0, "at least 0"),
    ("bubble_scan", "mu"): (lambda v: v >= 0, "at least 0"),
    ("curves", "t_lo"): (lambda v: v > 0, "positive"),
    ("curves", "samples"): (lambda v: v >= 2, "at least 2"),
}


def describe_kind(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(repr(choice) for choice in kind)
    return KINDS[kind][0]


def _accepts(kind, value) -> bool:
    return value in kind if isinstance(kind, tuple) else KINDS[kind][1](value)


def _find_line(text: str, key: str, start: int = 1) -> Optional[int]:
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines()[start - 1:], start=start):
        if needle in line:
            return lineno
    return None


def _anchor(path: str, text: str, key: str, block: Optional[str] = None) -> str:
    """path:line of the first line naming key, searched from the line naming block."""
    line = _find_line(text, key, (block and _find_line(text, block)) or 1)
    return f"{path}:{line}" if line else path


def _check_block(block, name: str, path: str, text: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: {name} block must be a JSON object")
    table = BLOCKS[name]
    for key, value in block.items():
        where = _anchor(path, text, key, name)
        if key not in table:
            raise ConfigError(f"{where}: unknown key {key!r} in {name} block")
        if not _accepts(table[key], value):
            raise ConfigError(f"{where}: {name}.{key} must be {describe_kind(table[key])}, got {value!r}")
        test, expected = RANGES.get((name, key), (None, ""))
        if test and not test(value):
            raise ConfigError(f"{where}: {name}.{key} must be {expected}, got {value!r}")


def _require(block: dict, key: str, name: str, path: str, text: str):
    if key not in block:
        raise ConfigError(f"{_anchor(path, text, name)}: missing required key {key!r} in {name} block")
    return block[key]


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    grid: dict
    seeds: tuple
    tolerances: dict
    project: Optional[dict]
    bubble_scan: Optional[dict]
    curves: Optional[dict]
    raw: dict = field(repr=False)
    source_path: str = ""
    text: str = field(default="", repr=False)

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def build_domain(self) -> GridDomain:
        g = self.grid
        try:
            return build_grid(
                n=g["n"],
                m=g["m"],
                box_length=g["box_length"],
                collar_factor=g.get("collar_factor", 1.0),
                params=self.params,
                shape=g.get("shape", "box"),
            )
        except ValueError as exc:
            raise ConfigError(f"{self.where('grid')}: {exc}") from exc

    def where(self, key: str) -> str:
        """path:line of the first line of the source naming key."""
        return _anchor(self.source_path, self.text, key)

    def tolerance(self, key: str, default):
        return self.tolerances.get(key, default)


def load_config(path) -> RunConfig:
    path = str(path)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for key in raw:
        if key not in TOP_KEYS:
            raise ConfigError(f"{_anchor(path, text, key)}: unknown top-level key {key!r}")
    for name in ("params", "grid"):
        if name not in raw:
            raise ConfigError(f"{path}: missing required block {name!r}")
    for name in BLOCKS:
        if name in raw:
            _check_block(raw[name], name, path, text)

    for key in ("n", "p", "s", "q", "alpha", "beta"):
        _require(raw["params"], key, "params", path, text)
    try:
        params = ModelParams.from_dict(raw["params"])
    except ValueError as exc:
        raise ConfigError(f"{_anchor(path, text, 'params')}: {exc}") from exc

    for key in ("n", "m", "box_length"):
        _require(raw["grid"], key, "grid", path, text)
    if raw["grid"]["n"] != params.n:
        raise ConfigError(f"{_anchor(path, text, 'grid')}: grid dimension {raw['grid']['n']} does not match params.n = {params.n}")

    seeds = raw.get("seeds", [0])
    if not (isinstance(seeds, list) and len(seeds) == 1 and KINDS[int][1](seeds[0]) and seeds[0] >= 0):
        raise ConfigError(
            f"{_anchor(path, text, 'seeds')}: seeds must be a list of exactly one non-negative integer, got {seeds!r}"
        )

    return RunConfig(
        params=params,
        grid=raw["grid"],
        seeds=tuple(seeds),
        tolerances=dict(raw.get("tolerances", {})),
        project=raw.get("project"),
        bubble_scan=raw.get("bubble_scan"),
        curves=raw.get("curves"),
        raw=raw,
        source_path=path,
        text=text,
    )
