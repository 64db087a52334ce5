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
from nehari_frac import bubbles, solver
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
    # "constants" was an accepted block that no command read; the solve
    # block's keys became solver.BRANCH_STARTS and solver.BRANCH_MAX_ITER
    for key in ("grids", "constants", "solve"):
        path = write_config(tmp_path, extra={key: {}})
        with pytest.raises(ConfigError, match=f"unknown top-level key '{key}'"):
            load_config(path)


def test_unknown_key_is_line_anchored(tmp_path):
    # root_rel, manifold_rel, classify_deadband and center were accepted keys
    # that nothing read; tolerances.max_iter and .n_starts duplicated solve.*;
    # the solver tolerances are code constants, project.curves and its sampling
    # keys duplicated the curves command, and the pair budget replaced max_pairs;
    # solve.n_starts and .max_iter became solver constants, and with them the
    # solve block went, so its keys are reported as that unknown block
    cases = (
        ("grid", "shap", "box"),
        ("tolerances", "root_rel", 1e-12),
        ("tolerances", "manifold_rel", 1e-8),
        ("tolerances", "classify_deadband", 1e-8),
        ("bubble_scan", "center", [0.5, 0.5]),
        ("tolerances", "max_iter", 4000),
        ("tolerances", "n_starts", 4),
        ("tolerances", "quotient_restarts", 10),
        ("tolerances", "quotient_max_iter", 4000),
        ("tolerances", "grad_rtol", 1e-9),
        ("tolerances", "energy_rtol", 1e-13),
        ("tolerances", "distinct_tol", 1e-6),
        ("tolerances", "semitrivial_tol", 1e-8),
        ("solve", "compute_constants", True),
        ("solve", "bubble_delta_frac", 0.25),
        ("solve", "bubble_eps_frac", 0.25),
        ("solve", "theta", 2.0),
        ("solve", "n_starts", 4),
        ("solve", "max_iter", 4000),
        ("project", "curves", True),
        ("project", "t_lo", 0.1),
        ("project", "t_hi", 10.0),
        ("project", "samples", 2000),
        ("grid", "max_pairs", 200_000_000),
    )
    for block, key, value in cases:
        path = write_config(tmp_path, **{block: {key: value}})
        unknown = "top-level key 'solve'" if block == "solve" else f"key '{key}'"
        with pytest.raises(ConfigError, match=rf"cfg\.json:\d+: unknown {unknown}"):
            load_config(path)


DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.json"


MALFORMED = [
    ("bubble_scan", "method", "foo", "bubble-scan", "method"),
    ("bubble_scan", "eps_list", ["a"], "bubble-scan", "eps_list"),
    ("bubble_scan", "delta", "x", "bubble-scan", "delta"),
    ("grid", "shape", "disk", "constants", "shape"),
    ("grid", "m", 12.5, "constants", "m"),
    ("grid", "m", 1, "constants", "grid"),               # rejected by build_grid
    ("grid", "collar_factor", 0.5, "constants", "grid"),  # rejected by build_grid
    ("curves", "samples", "x", "curves", "samples"),
    ("bubble_scan", "lambda", "x", "bubble-scan", "lambda"),  # named in params first
    (None, "seeds", [7, 8], "curves", "seeds"),
    (None, "seeds", [True], "curves", "seeds"),
    (None, "seeds", [-1], "curves", "seeds"),
    ("bubble_scan", "theta", 3.0, "bubble-scan", "bubble_scan"),  # the centred bubble does not fit
]


def _probe_desk(tmp_path, capsys, block, key, value, command, anchor):
    """Run command on configs/desk.json changed in one place; assert exit 2 with
    an error naming the line of the anchor key in the probed block and no
    traceback, and return the error text."""
    doc = json.loads(DESK.read_text())
    (doc if block is None else doc[block])[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    lines = path.read_text().splitlines()
    start = 0 if block is None else next(i for i, text in enumerate(lines) if f'"{block}"' in text)
    line = next(i for i, text in enumerate(lines[start:], start + 1) if f'"{anchor}"' in text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("block, key, value, command, anchor", MALFORMED,
                         ids=[f"{key}={json.dumps(value)}" for _, key, value, _, _ in MALFORMED])
def test_malformed_value_exits_2_line_anchored(tmp_path, capsys, block, key, value, command, anchor):
    _probe_desk(tmp_path, capsys, block, key, value, command, anchor)


OUT_OF_RANGE = [
    ("tolerances", "quotient_flat", -1e-06, "constants", "at least 0"),
    ("bubble_scan", "theta", 1.0, "bubble-scan", "above 1"),
    ("bubble_scan", "eps_list", [], "bubble-scan", "a non-empty list"),
    ("bubble_scan", "lambda", -1.0, "bubble-scan", "at least 0"),
    ("bubble_scan", "mu", -1.0, "bubble-scan", "at least 0"),
    ("curves", "samples", 1, "curves", "at least 2"),
    ("curves", "t_lo", 0.0, "curves", "positive"),
]


@pytest.mark.parametrize("block, key, value, command, expected", OUT_OF_RANGE,
                         ids=[f"{key}={json.dumps(value)}" for _, key, value, _, _ in OUT_OF_RANGE])
def test_out_of_range_value_exits_2_line_anchored(tmp_path, capsys, block, key, value, command, expected):
    err = _probe_desk(tmp_path, capsys, block, key, value, command, key)
    assert f"{block}.{key} must be {expected}, got {value!r}" in err


def test_negative_seed_and_unfit_bubble_name_the_key(tmp_path, capsys):
    err = _probe_desk(tmp_path, capsys, None, "seeds", [-1], "curves", "seeds")
    assert "seeds must be a list of exactly one non-negative integer, got [-1]" in err
    # theta * delta = 0.75 > 0.5: fails before any constant is computed, for both scan methods
    for method in ("lattice", "quadrature"):
        doc = json.loads(DESK.read_text())
        doc["bubble_scan"].update(theta=3.0, method=method)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        assert main(["bubble-scan", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "bubble_scan.theta * bubble_scan.delta = 0.75 exceeds half the box length 0.5" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["curves", "--config", str(DESK), "--out", str(tmp_path / "out"), "--seed", "-1", "--quiet"])
    assert exc.value.code == 2
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err


def test_bubble_that_misses_every_node_exits_2(tmp_path, capsys, monkeypatch):
    """At m = 6 the nearest node lies 0.101 from the centre, beyond the
    support radius theta * delta = 0.02: a user error naming eps, found next
    to the "does not fit" check, before any quotient solve or norm scan, for
    both scan methods."""
    def not_reached(*args, **kwargs):
        raise AssertionError("reached a solve or scan")

    monkeypatch.setattr("nehari_frac.constants.compute_S_coupled", not_reached)
    monkeypatch.setattr(bubbles, "norm_estimate_scan", not_reached)
    for method in ("lattice", "quadrature"):
        doc = json.loads(DESK.read_text())
        doc["grid"]["m"] = 6
        doc["bubble_scan"].update(delta=0.01, eps_list=[0.005, 0.0025], method=method)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        assert main(["bubble-scan", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the bubble at eps = 0.005 is zero on every interior node")
        assert "Traceback" not in err


def test_constants_at_m48(tmp_path):
    """m = 48 puts (m + 1) h below L = 1 in floats; membership on float
    coordinates took in the node on x = L and the build failed in
    ravel_multi_index (exit 2, "invalid entry in coordinates array")."""
    doc = json.loads(DESK.read_text())
    doc["grid"]["m"] = 48
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert main(["constants", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_curves_empty_t_interval_exits_2(tmp_path, capsys):
    # t_lo >= t_hi, given both ways or against the default t_hi = 3 t2
    for bounds in ({"t_lo": 5.0, "t_hi": 1.0}, {"t_lo": 2.0, "t_hi": 2.0}, {"t_lo": 1e6}):
        cfg = write_config(tmp_path, curves={"seeded": True, "samples": 10, **bounds})
        assert main(["curves", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: curves needs t_lo < t_hi")
        assert "Traceback" not in err


def test_readme_config_table_matches_config():
    """The README's "Config keys" table lists exactly the keys config.BLOCKS
    accepts, each with the kind the validation error names."""
    from nehari_frac.config import BLOCKS, TOP_KEYS, describe_kind

    section = (DESK.parents[1] / "README.md").read_text().split("### Config keys\n", 1)[1]
    lines = section.split("\n\n| ", 1)[1].split("\n\n", 1)[0].splitlines()
    rows = [[cell.strip() for cell in line.split("|")[1:4]] for line in lines[2:]]
    expected = {(block, key): describe_kind(kind) for block, table in BLOCKS.items() for key, kind in table.items()}
    expected[("", "seeds")] = "a list of one integer"
    assert {(block, key): kind for block, key, kind in rows} == expected
    assert len(rows) == len(expected) == 31
    assert TOP_KEYS == set(BLOCKS) | {"seeds"}


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


def test_solve_writes_reports_and_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "BRANCH_STARTS", 2)
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 600)
    cfg = write_config(tmp_path)
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
    save_field(dom, nf.Field(np.zeros(dom.n_interior)), tmp_path / "z.field")
    code = main([
        "project", "--config", str(cfg), "--out", str(tmp_path / "out"),
        "--u", str(tmp_path / "z.field"), "--v", str(tmp_path / "z.field"), "--quiet",
    ])
    assert code == 2
    assert "zero pair has no fibering" in capsys.readouterr().err


def _random_fields(tmp_path, cfg, seed):
    dom = load_config(cfg).build_domain()
    rng = np.random.default_rng(seed)
    save_field(dom, nf.Field(np.abs(rng.standard_normal(dom.n_interior))), tmp_path / "u.field")
    save_field(dom, nf.Field(np.abs(rng.standard_normal(dom.n_interior))), tmp_path / "v.field")


def test_project_roundtrip_and_rerun_identical(tmp_path):
    cfg = write_config(tmp_path)
    _random_fields(tmp_path, cfg, 3)
    args = ["project", "--config", str(cfg),
            "--u", str(tmp_path / "u.field"), "--v", str(tmp_path / "v.field"), "--quiet"]
    assert main(args + ["--out", str(tmp_path / "p1")]) == 0
    assert main(args + ["--out", str(tmp_path / "p2")]) == 0
    r1 = (tmp_path / "p1" / "fibering_report.json").read_bytes()
    assert r1 == (tmp_path / "p2" / "fibering_report.json").read_bytes()
    report = json.loads(r1)
    assert report["outcome"] == "two_roots"
    assert report["t1"] < report["t_max"] < report["t2"]


def test_curves_from_field_files(tmp_path):
    cfg = write_config(tmp_path, extra={"curves": {"u": str(tmp_path / "u.field"),
                                                   "v": str(tmp_path / "v.field"), "samples": 400}})
    _random_fields(tmp_path, cfg, 3)
    assert main(["curves", "--config", str(cfg), "--out", str(tmp_path / "c"), "--quiet"]) == 0
    csv = (tmp_path / "c" / "curves.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,phi,phi_prime,phi_second,psi"
    assert len(lines) == 401
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(a < b for a, b in zip(ts, ts[1:]))
    assert "\r" not in csv
    meta = json.loads((tmp_path / "c" / "curves.meta.json").read_text())
    assert meta["outcome"] == "two_roots" and meta["t1"] < meta["t_max"] < meta["t2"]
    assert verify_output_dir(tmp_path / "c")


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


@pytest.mark.parametrize("damage", ["truncated", "missing", "non_finite", "sidecar_not_json", "sidecar_not_object"])
def test_project_bad_field_file_exits_2(tmp_path, capsys, damage):
    cfg = write_config(tmp_path)
    _random_fields(tmp_path, cfg, 3)
    bad = tmp_path / "u.field"
    if damage == "truncated":
        bad.write_bytes(bad.read_bytes()[:7])
    elif damage == "missing":
        bad.unlink()
    elif damage == "sidecar_not_json":
        (tmp_path / "u.field.json").write_text("{not json")
    elif damage == "sidecar_not_object":
        (tmp_path / "u.field.json").write_text("[1, 2]")
    else:
        values = np.frombuffer(bad.read_bytes(), dtype="<f8").copy()
        values[2] = np.nan
        bad.write_bytes(values.tobytes())
    code = main([
        "project", "--config", str(cfg), "--out", str(tmp_path / "out"),
        "--u", str(bad), "--v", str(tmp_path / "v.field"), "--quiet",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_solve_reports_the_branch_budget(tmp_path, monkeypatch, capsys):
    """solver.BRANCH_MAX_ITER, read at call time, caps each branch descent;
    a solve whose reported branch stopped at its budget exits 1 and its
    summary names the branch."""
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 1)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["budget_stops"] == ["plus", "minus"] and summary["all_checks_pass"]
    for tag in ("plus", "minus"):
        report = json.loads((out / f"solution_{tag}.json").read_text())
        assert (report["stop_reason"], report["converged"], report["iterations"]) == ("budget", False, 1)


def test_verify_detects_tampering(tmp_path):
    cfg = write_config(tmp_path, extra={"curves": {"seeded": True, "samples": 100}})
    out = tmp_path / "t"
    assert main(["curves", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert verify_output_dir(out)
    (out / "curves.csv").write_text("tampered\n")
    assert not verify_output_dir(out)
    (out / "curves.csv").unlink()
    assert not verify_output_dir(out)


def test_manifest_lists_exactly_the_files_each_command_writes(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "BRANCH_STARTS", 2)
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 600)
    cfg = write_config(tmp_path, extra={
        "curves": {"seeded": True, "samples": 100},
        "bubble_scan": {"delta": 0.25, "theta": 2.0, "eps_list": [0.0625, 0.03125],
                        "s_d": 8.8347, "s_ab_d": 17.6693},
    })
    fields = ["--u", str(tmp_path / "solve" / "solution_minus_u.field"),
              "--v", str(tmp_path / "solve" / "solution_minus_v.field")]
    # solve runs first: project reads its fields
    for command, extra in (("solve", []), ("constants", []), ("project", fields), ("bubble-scan", []), ("curves", [])):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet", *extra]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(path.name for path in out.iterdir()) == sorted([*manifest["files"], "manifest.json"]), command
        assert verify_output_dir(out)


def _python(code, *args):
    """Run `python -c code *args` against this package's sources."""
    src = str(Path(nf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=300)


_LOADED_SCIPY = (
    "import sys\n"
    "import nehari_frac.cli as cli\n"
    "rc = cli.main(sys.argv[1:])\n"
    "print(rc, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
)


def test_solve_loads_no_scipy(tmp_path):
    """The solve path imports numpy alone; scipy costs set-up time and memory."""
    path = write_config(tmp_path, grid={"m": 8})
    done = _python(_LOADED_SCIPY, "solve", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "0 []"


def test_quadrature_bubble_scan_loads_no_scipy(tmp_path):
    """The radial quadrature evaluates its special functions with numpy alone."""
    path = write_config(tmp_path, extra={
        "bubble_scan": {"delta": 0.25, "theta": 2.0, "eps_list": [0.0625, 0.03125], "method": "quadrature"},
    })
    out = tmp_path / "out"
    done = _python(_LOADED_SCIPY, "bubble-scan", "--config", str(path), "--out", str(out), "--quiet")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "0 []"
    assert verify_output_dir(out)


def test_quadrature_richardson_failure_exits_1(tmp_path):
    # from eps = delta/64 on the differences of the resolved seminorm change
    # sign, so no eps -> 0 reference exists: a clean failure, not a traceback
    path = write_config(tmp_path, extra={
        "bubble_scan": {
            "delta": 0.25, "theta": 2.0, "method": "quadrature",
            "eps_list": [0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625],
            "s_d": 8.8347, "s_ab_d": 17.6693,
        },
    })
    done = _python("import sys, nehari_frac.cli as cli; sys.exit(cli.main(sys.argv[1:]))",
                   "bubble-scan", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    lines = done.stderr.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("failure: Richardson reference failed"), done.stderr
    assert "seminorm_p_pow differences" in lines[0]
    assert not (tmp_path / "out" / "bubble_scan.csv").exists()
