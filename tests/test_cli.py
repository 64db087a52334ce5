import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nehari_frac as nf
from nehari_frac import bubbles
from nehari_frac.cli import BUBBLE_HEADER, main, verify_output_dir
from nehari_frac.config import load_config
from nehari_frac.errors import ConfigError
from nehari_frac.fieldio import save_field

BASE = {
    "params": {"n": 2, "p": 2.0, "s": 0.4, "q": 1.8,
               "alpha": 1.6666666666666667, "beta": 1.6666666666666667,
               "lambda": 3.56, "mu": 3.56},
    "grid": {"n": 2, "m": 6, "box_length": 1.0, "collar_factor": 1.0, "shape": "box"},
    "seeds": [7],
    "tolerances": {"quotient_flat": 1e-06},
}


def write_config(tmp_path, extra=None, name="cfg.json", **overrides):
    doc = json.loads(json.dumps(BASE))
    doc.update(extra or {})
    for key, sub in overrides.items():
        doc[key] = {**doc.get(key, {}), **sub}
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_unknown_top_level_key(tmp_path):
    # "constants" was an accepted block that no command read
    for key in ("grids", "constants"):
        path = write_config(tmp_path, extra={key: {}})
        with pytest.raises(ConfigError, match=f"unknown top-level key '{key}'"):
            load_config(path)


def test_unknown_key_is_line_anchored(tmp_path):
    # root_rel, manifold_rel, classify_deadband and center were accepted keys
    # that nothing read; tolerances.max_iter and .n_starts duplicated solve.*
    cases = (
        ("grid", "shap", "box"),
        ("tolerances", "root_rel", 1e-12),
        ("tolerances", "manifold_rel", 1e-8),
        ("tolerances", "classify_deadband", 1e-8),
        ("bubble_scan", "center", [0.5, 0.5]),
        ("tolerances", "max_iter", 4000),
        ("tolerances", "n_starts", 4),
    )
    for block, key, value in cases:
        path = write_config(tmp_path, **{block: {key: value}})
        with pytest.raises(ConfigError, match=rf"cfg\.json:\d+: unknown key '{key}'"):
            load_config(path)


def test_quotient_restarts_below_one_rejected(tmp_path, capsys):
    # compute_S(restarts=0) runs only caller-supplied starts, and the CLI supplies none
    for restarts in (0, -3):
        path = write_config(tmp_path, tolerances={"quotient_restarts": restarts})
        with pytest.raises(ConfigError, match=r"cfg\.json:\d+: quotient_restarts must be at least 1"):
            load_config(path)
        assert main(["constants", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "quotient_restarts" in capsys.readouterr().err


def test_missing_grid_block(tmp_path):
    doc = json.loads(json.dumps(BASE))
    del doc["grid"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="missing required block 'grid'"):
        load_config(path)


def test_grid_dimension_mismatch(tmp_path):
    path = write_config(tmp_path, grid={"n": 3})
    with pytest.raises(ConfigError, match="does not match params.n"):
        load_config(path)


def test_invalid_params_rejected_before_compute(tmp_path):
    path = write_config(tmp_path, params={"q": 2.5})
    with pytest.raises(ConfigError, match="q"):
        load_config(path)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "params": [,]\n}\n')
    with pytest.raises(ConfigError, match=r"bad\.json:2"):
        load_config(path)


def test_config_hash_is_stable(tmp_path):
    p1 = write_config(tmp_path, name="a.json")
    p2 = write_config(tmp_path, name="b.json")
    assert load_config(p1).config_hash == load_config(p2).config_hash


# ---------------------------------------------------------------------------
# Exit codes and outputs
# ---------------------------------------------------------------------------

def test_constants_deterministic_reruns(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["constants", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["constants", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    for name in ("constants.json", "s_minimizer.field", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert verify_output_dir(out1)
    payload = json.loads((out1 / "constants.json").read_text())
    assert payload["config_hash"] == load_config(cfg).config_hash
    assert payload["ratio_predicted"] == 2.0


def test_solve_zero_weights_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, params={"lambda": 0.0, "mu": 0.0})
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert "parameters must be positive" in capsys.readouterr().err


def test_solve_writes_reports_and_manifest(tmp_path):
    cfg = write_config(tmp_path, extra={"solve": {"n_starts": 2, "max_iter": 600}})
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    plus = json.loads((out / "solution_plus.json").read_text())
    minus = json.loads((out / "solution_minus.json").read_text())
    assert plus["branch"] == "Nplus" and minus["branch"] == "Nminus"
    assert plus["energy"] < 0 < minus["energy"]
    assert plus["field_hash"] != minus["field_hash"]
    assert verify_output_dir(out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "solution_plus_u.field" in manifest["files"]


def test_project_zero_field_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    config = load_config(cfg)
    dom = config.build_domain()
    save_field(dom, nf.Field.zeros(dom), tmp_path / "z.field")
    code = main([
        "project", "--config", str(cfg), "--out", str(tmp_path / "out"),
        "--u", str(tmp_path / "z.field"), "--v", str(tmp_path / "z.field"), "--quiet",
    ])
    assert code == 2
    assert "zero pair has no fibering" in capsys.readouterr().err


def test_project_roundtrip_and_rerun_identical(tmp_path):
    cfg = write_config(tmp_path, extra={"project": {"curves": True, "samples": 400}})
    config = load_config(cfg)
    dom = config.build_domain()
    rng = np.random.default_rng(3)
    save_field(dom, nf.Field(np.abs(rng.standard_normal(dom.n_interior))), tmp_path / "u.field")
    save_field(dom, nf.Field(np.abs(rng.standard_normal(dom.n_interior))), tmp_path / "v.field")
    args = ["project", "--config", str(cfg),
            "--u", str(tmp_path / "u.field"), "--v", str(tmp_path / "v.field"), "--quiet"]
    assert main(args + ["--out", str(tmp_path / "p1")]) == 0
    assert main(args + ["--out", str(tmp_path / "p2")]) == 0
    r1 = (tmp_path / "p1" / "fibering_report.json").read_bytes()
    assert r1 == (tmp_path / "p2" / "fibering_report.json").read_bytes()
    report = json.loads(r1)
    assert report["outcome"] == "two_roots"
    assert report["t1"] < report["t_max"] < report["t2"]
    csv = (tmp_path / "p1" / "curves.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,phi,phi_prime,phi_second,psi"
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(a < b for a, b in zip(ts, ts[1:]))
    assert "\r" not in csv


def test_project_domain_hash_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path)
    other_cfg = write_config(tmp_path, name="other.json", grid={"m": 7})
    other_dom = load_config(other_cfg).build_domain()
    rng = np.random.default_rng(4)
    save_field(other_dom, nf.Field(rng.standard_normal(other_dom.n_interior)), tmp_path / "u.field")
    code = main([
        "project", "--config", str(cfg), "--out", str(tmp_path / "out"),
        "--u", str(tmp_path / "u.field"), "--v", str(tmp_path / "u.field"), "--quiet",
    ])
    assert code == 2
    assert "hash mismatch" in capsys.readouterr().err


def test_bubble_scan_rejects_bad_eps(tmp_path, capsys):
    cfg = write_config(tmp_path, extra={
        "bubble_scan": {"delta": 0.25, "theta": 2.0, "eps_list": [0.0625, 0.2]},
    })
    code = main(["bubble-scan", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert "0.2" in capsys.readouterr().err


def test_bubble_scan_needs_both_supplied_constants(tmp_path, capsys):
    # a lone constant must fail, not be replaced by recomputed ones
    for given in ({"s_d": 1.2345}, {"s_ab_d": 2.469}):
        cfg = write_config(tmp_path, extra={
            "bubble_scan": {"delta": 0.25, "theta": 2.0, "eps_list": [0.0625], **given},
        })
        code = main(["bubble-scan", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert "both s_d and s_ab_d" in capsys.readouterr().err
        assert not (tmp_path / "out" / "bubble_scan.meta.json").exists()


def test_bubble_scan_csv_schema_and_determinism(tmp_path):
    cfg = write_config(tmp_path, extra={
        "bubble_scan": {
            "delta": 0.25, "theta": 2.0, "eps_list": [0.0625, 0.03125],
            "lambda": 6.0, "mu": 6.0, "method": "lattice",
            "s_d": 8.8347, "s_ab_d": 17.6693,
        },
    })
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert main(["bubble-scan", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["bubble-scan", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    csv1 = (out1 / "bubble_scan.csv").read_bytes()
    assert csv1 == (out2 / "bubble_scan.csv").read_bytes()
    text = csv1.decode()
    header = text.split("\n", 1)[0]
    assert header == ",".join(BUBBLE_HEADER)
    assert header == "eps,seminorm_p_pow,lpstar_pow,excess,deficit,t_star,sup_full,q_regime,c_infty,below_c_infty"
    row = text.strip().split("\n")[1].split(",")
    assert row[7].startswith("supercritical-q")
    assert row[9] in ("true", "false")
    assert verify_output_dir(out1)


def test_bubble_scan_float_cells_are_plain_literals(tmp_path, monkeypatch):
    # the quadrature route returns numpy scalars for excess and deficit; the
    # lattice route is made to do the same so the check runs in seconds
    lattice_scan = bubbles.norm_estimate_scan

    def numpy_valued_scan(*args, **kwargs):
        result = lattice_scan(*args, **kwargs)
        rows = tuple(
            dataclasses.replace(r, excess=np.float64(r.excess), deficit=np.float64(r.deficit))
            for r in result.rows
        )
        return dataclasses.replace(result, rows=rows)

    monkeypatch.setattr(bubbles, "norm_estimate_scan", numpy_valued_scan)
    cfg = write_config(tmp_path, extra={
        "bubble_scan": {
            "delta": 0.25, "theta": 2.0, "eps_list": [0.0625, 0.03125],
            "lambda": 6.0, "mu": 6.0, "method": "lattice",
            "s_d": 8.8347, "s_ab_d": 17.6693,
        },
    })
    out = tmp_path / "b"
    assert main(["bubble-scan", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    literal = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
    rows = list(csv.DictReader(io.StringIO((out / "bubble_scan.csv").read_text())))
    assert rows
    for row in rows:
        for name in ("eps", "seminorm_p_pow", "lpstar_pow", "excess", "deficit", "t_star", "sup_full", "c_infty"):
            assert literal.fullmatch(row[name]), (name, row[name])


def test_curves_seeded_deterministic(tmp_path):
    cfg = write_config(tmp_path, extra={"curves": {"seeded": True, "samples": 300}})
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["curves", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["curves", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()
    meta = json.loads((out1 / "curves.meta.json").read_text())
    assert meta["outcome"] == "two_roots"


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path, extra={"curves": {"seeded": True, "samples": 100}})
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["curves", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["curves", "--config", str(cfg), "--out", str(out2), "--seed", "99", "--quiet"]) == 0
    assert (out1 / "curves.csv").read_bytes() != (out2 / "curves.csv").read_bytes()


def test_verify_detects_tampering(tmp_path):
    cfg = write_config(tmp_path, extra={"curves": {"seeded": True, "samples": 100}})
    out = tmp_path / "t"
    assert main(["curves", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert verify_output_dir(out)
    (out / "curves.csv").write_text("tampered\n")
    assert not verify_output_dir(out)


def test_solve_loads_no_scipy(tmp_path):
    """The solve path imports numpy alone; scipy costs set-up time and memory."""
    path = write_config(tmp_path, grid={"m": 8})
    code = (
        "import sys\n"
        "import nehari_frac.cli as cli\n"
        f"rc = cli.main(['solve', '--config', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}, '--quiet'])\n"
        "print(rc, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(nf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "0 []"
