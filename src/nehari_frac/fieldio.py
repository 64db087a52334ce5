"""Field persistence.

A field is stored as a raw little-endian float64 array plus a JSON sidecar
(<path>.json) recording the domain hash, the node count and the dtype tag
"f64le".  Loading verifies the hash against the target domain.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import Field, GridDomain, as_values


def save_field(dom: GridDomain, u, path) -> None:
    path = Path(path)
    v = as_values(u)
    if v.shape != (dom.n_interior,):
        raise ValueError("field length does not match the domain")
    path.write_bytes(v.astype("<f8").tobytes())
    sidecar = {
        "domain_hash": dom.domain_hash(),
        "count": int(v.shape[0]),
        "dtype": "f64le",
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_field(dom: GridDomain, path) -> Field:
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise ConfigError(f"missing field sidecar {sidecar_path}")
    sidecar = json.loads(sidecar_path.read_text())
    if sidecar.get("dtype") != "f64le":
        raise ConfigError(f"unsupported field dtype {sidecar.get('dtype')!r} in {sidecar_path}")
    if sidecar.get("domain_hash") != dom.domain_hash():
        raise ConfigError(f"domain hash mismatch between {path} and the configured grid")
    raw = np.frombuffer(path.read_bytes(), dtype="<f8")
    if raw.shape[0] != sidecar.get("count") or raw.shape[0] != dom.n_interior:
        raise ConfigError(f"field {path} has {raw.shape[0]} values, expected {dom.n_interior}")
    return Field(raw.copy())
