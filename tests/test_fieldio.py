import json

import numpy as np
import pytest

import nehari_frac as nf
from nehari_frac.errors import ConfigError
from nehari_frac.fieldio import load_field, save_field

from conftest import DESK


@pytest.fixture()
def dom():
    return nf.build_grid(2, 4, 1.0, 1.0, nf.ModelParams(**DESK))


def test_roundtrip(tmp_path, dom):
    rng = np.random.default_rng(0)
    u = nf.Field(rng.standard_normal(dom.n_interior))
    save_field(dom, u, tmp_path / "u.field")
    back = load_field(dom, tmp_path / "u.field")
    assert np.array_equal(back.values, u.values)
    sidecar = json.loads((tmp_path / "u.field.json").read_text())
    assert sidecar == {
        "domain_hash": dom.domain_hash(),
        "count": dom.n_interior,
        "dtype": "f64le",
    }


def test_raw_bytes_are_little_endian(tmp_path, dom):
    u = nf.Field(np.arange(dom.n_interior, dtype=float))
    save_field(dom, u, tmp_path / "u.field")
    raw = (tmp_path / "u.field").read_bytes()
    assert len(raw) == 8 * dom.n_interior
    assert np.frombuffer(raw, dtype="<f8")[3] == 3.0


def test_domain_hash_mismatch(tmp_path, dom):
    other = nf.build_grid(2, 5, 1.0, 1.0, nf.ModelParams(**DESK))
    u = nf.Field(np.zeros(dom.n_interior))
    save_field(dom, u, tmp_path / "u.field")
    with pytest.raises(ConfigError, match="hash mismatch"):
        load_field(other, tmp_path / "u.field")


def test_missing_sidecar(tmp_path, dom):
    (tmp_path / "u.field").write_bytes(b"\x00" * 8 * dom.n_interior)
    with pytest.raises(ConfigError, match="sidecar"):
        load_field(dom, tmp_path / "u.field")
