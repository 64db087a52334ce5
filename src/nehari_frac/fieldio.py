"""Field persistence.

A field is stored as a raw little-endian float64 array plus a JSON sidecar
(<path>.json) recording the domain hash, the node count and the dtype tag
"f64le".  Loading raises ConfigError on any mismatch, a missing file, a
malformed sidecar or NaN/inf.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import Field, GridDomain, as_values


def _sidecar(path: Path) -> Path:
    return Path(str(path) + ".json")


def save_field(dom: GridDomain, u, path):
    """Write the field and its sidecar; returns (field path, sidecar path)."""
    path, sidecar_path = Path(path), _sidecar(path)
    v = as_values(u)
    if v.shape != (dom.n_interior,):
        raise ValueError("field length does not match the domain")
    path.write_bytes(v.astype("<f8").tobytes())
    sidecar = {
        "domain_hash": dom.domain_hash(),
        "count": int(v.shape[0]),
        "dtype": "f64le",
    }
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    return path, sidecar_path


def load_field(dom: GridDomain, path) -> Field:
    path = Path(path)
    sidecar_path = _sidecar(path)
    if not sidecar_path.exists():
        raise ConfigError(f"missing field sidecar {sidecar_path}")
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed field sidecar {sidecar_path}: {exc}") from None
    if not isinstance(sidecar, dict):
        raise ConfigError(f"field sidecar {sidecar_path} does not hold a JSON object")
    if sidecar.get("dtype") != "f64le":
        raise ConfigError(f"unsupported field dtype {sidecar.get('dtype')!r} in {sidecar_path}")
    if sidecar.get("domain_hash") != dom.domain_hash():
        raise ConfigError(f"domain hash mismatch between {path} and the configured grid")
    if not path.is_file():
        raise ConfigError(f"missing field file {path}")
    data = path.read_bytes()
    if len(data) != 8 * dom.n_interior or sidecar.get("count") != dom.n_interior:
        raise ConfigError(f"field {path} has {len(data)} bytes, expected {dom.n_interior} float64 values")
    raw = np.frombuffer(data, dtype="<f8")
    if not np.all(np.isfinite(raw)):
        raise ConfigError(f"field {path} holds non-finite values")
    return Field(raw.copy())
