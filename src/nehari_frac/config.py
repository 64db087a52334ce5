"""JSON run configuration: strict schema, line-anchored errors, canonical hash.

A single JSON file drives every CLI command.  Unknown keys are rejected
(naming the offending line when it can be located in the source text), the
model parameters are validated before any computation, and the canonical
serialization of the parsed document is hashed so outputs can be tied to the
exact configuration that produced them.  `grid.max_pairs` caps the explicit
interior pair list, which only p != 2 builds; at p = 2 the key is accepted
and has no effect.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .grid import DEFAULT_MAX_PAIRS, GridDomain, build_grid
from .params import ModelParams

TOP_KEYS = {"params", "grid", "seeds", "tolerances", "project", "solve", "bubble_scan", "curves"}
PARAMS_KEYS = {"n", "p", "s", "q", "alpha", "beta", "lambda", "mu"}
GRID_KEYS = {"n", "m", "box_length", "collar_factor", "shape", "max_pairs"}
TOLERANCE_KEYS = {
    "quotient_flat",
    "quotient_restarts",
    "quotient_max_iter",
    "grad_rtol",
    "energy_rtol",
    "distinct_tol",
    "semitrivial_tol",
}
PROJECT_KEYS = {"u", "v", "curves", "t_lo", "t_hi", "samples"}
SOLVE_KEYS = {"compute_constants", "n_starts", "max_iter", "bubble_delta_frac", "bubble_eps_frac", "theta"}
BUBBLE_SCAN_KEYS = {"delta", "theta", "eps_list", "lambda", "mu", "method", "s_d", "s_ab_d"}
CURVES_KEYS = {"u", "v", "seeded", "t_lo", "t_hi", "samples"}


def _find_line(text: str, key: str) -> Optional[int]:
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return None


def _anchor(path: str, text: str, key: str) -> str:
    line = _find_line(text, key)
    return f"{path}:{line}" if line else path


def _check_keys(block: dict, allowed: set, name: str, path: str, text: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: {name} block must be a JSON object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{_anchor(path, text, key)}: unknown key {key!r} in {name} block")


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
    solve: Optional[dict]
    bubble_scan: Optional[dict]
    curves: Optional[dict]
    raw: dict = field(repr=False)
    source_path: str = ""

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def build_domain(self) -> GridDomain:
        g = self.grid
        return build_grid(
            n=g["n"],
            m=g["m"],
            box_length=g["box_length"],
            collar_factor=g.get("collar_factor", 1.0),
            params=self.params,
            shape=g.get("shape", "box"),
            max_pairs=int(g.get("max_pairs", DEFAULT_MAX_PAIRS)),
        )

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

    if "params" not in raw:
        raise ConfigError(f"{path}: missing required block 'params'")
    _check_keys(raw["params"], PARAMS_KEYS, "params", path, text)
    for key in ("n", "p", "s", "q", "alpha", "beta"):
        _require(raw["params"], key, "params", path, text)
    try:
        params = ModelParams.from_dict(raw["params"])
    except ValueError as exc:
        raise ConfigError(f"{_anchor(path, text, 'params')}: {exc}") from exc

    if "grid" not in raw:
        raise ConfigError(f"{path}: missing required block 'grid'")
    _check_keys(raw["grid"], GRID_KEYS, "grid", path, text)
    for key in ("n", "m", "box_length"):
        _require(raw["grid"], key, "grid", path, text)
    if raw["grid"]["n"] != params.n:
        raise ConfigError(f"{_anchor(path, text, 'grid')}: grid dimension {raw['grid']['n']} does not match params.n = {params.n}")

    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        raise ConfigError(f"{_anchor(path, text, 'seeds')}: seeds must be a nonempty list of integers")

    tolerances = raw.get("tolerances", {})
    _check_keys(tolerances, TOLERANCE_KEYS, "tolerances", path, text)
    for key, value in tolerances.items():
        if not isinstance(value, (int, float)):
            raise ConfigError(f"{_anchor(path, text, key)}: tolerance {key!r} must be numeric")
    if tolerances.get("quotient_restarts", 1) < 1:
        raise ConfigError(f"{_anchor(path, text, 'quotient_restarts')}: quotient_restarts must be at least 1")

    blocks = {}
    for name, allowed in (
        ("project", PROJECT_KEYS),
        ("solve", SOLVE_KEYS),
        ("bubble_scan", BUBBLE_SCAN_KEYS),
        ("curves", CURVES_KEYS),
    ):
        if name in raw:
            _check_keys(raw[name], allowed, name, path, text)
            blocks[name] = raw[name]
        else:
            blocks[name] = None

    return RunConfig(
        params=params,
        grid=raw["grid"],
        seeds=tuple(seeds),
        tolerances=dict(tolerances),
        project=blocks["project"],
        solve=blocks["solve"],
        bubble_scan=blocks["bubble_scan"],
        curves=blocks["curves"],
        raw=raw,
        source_path=path,
    )
