"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer, self_times, summarize, under  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 5.0, 0],      # overlaps a (another thread): 1..5 counted once
        ["c", 9.0, 12.0, 0],     # runs past its parent: only 9..10 counts
        ["leaf", 1.5, 2.0, 1],
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 2.5, 2.0, 3.0, 0.5])


def test_summary_counts_recursion_once_and_under_follows_ancestry():
    spans = [
        ["outer", 0.0, 6.0, -1],
        ["outer", 1.0, 3.0, 0],
        ["k", 1.5, 2.0, 1],
        ["k", 4.0, 5.0, -1],
    ]
    summary = summarize(spans)
    assert summary["outer"] == {"calls": 2, "self_s": pytest.approx(5.5), "total_s": pytest.approx(6.0)}
    assert summary["k"]["calls"] == 2
    assert under(spans, "outer") == [False, True, True, False]


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .core import work\n")
    (pkg / "core.py").write_text("def work(x):\n    return x + 1\n")
    (pkg / "user.py").write_text("from .core import work\n\ndef call(x):\n    return work(x)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [n for n in sys.modules if n == "fakepkg" or n.startswith("fakepkg.")]:
        del sys.modules[name]


def test_wrap_patches_every_binding(fake_package):
    import fakepkg.user

    tracer = Tracer(package=fake_package)
    assert tracer.wrap("core", "work", lambda fn: tracer.record("core.work", fn))
    assert fakepkg.user.call(1) == 2
    assert sys.modules["fakepkg.core"].work(1) == 2
    assert fakepkg.work(1) == 2
    assert [s[0] for s in tracer.spans] == ["core.work"] * 3
    assert tracer.absent == []


def test_missing_targets_are_reported_absent_not_zero(fake_package):
    tracer = Tracer(package=fake_package)
    assert not tracer.wrap("core", "gone", lambda fn: fn)
    assert not tracer.wrap("no_module", "work", lambda fn: fn)
    assert tracer.absent == ["core.gone", "no_module.work"]

    tracer.absent = ["energy.gradient_arrays"]
    metrics = layers.derive(tracer, {})
    for name in ("energy.gradient_calls", "energy.gradient_s"):
        assert metrics[name]["value"] is None
        assert metrics[name]["absent"] == ["energy.gradient_arrays"]
    assert metrics["grid.plap_calls"] == {"value": 0, "unit": "count"}


def test_solver_ratios_come_from_spans_under_the_descent():
    tracer = Tracer()
    tracer.spans = [["solver.descent", 0.0, 10.0, -1]]
    tracer.spans += [["grid.plap", 1.0 + i, 1.5 + i, 0] for i in range(8)]
    tracer.spans += [["grid.plap", 20.0, 21.0, -1]]  # outside the descent
    tracer.count("solver.iterations", 2)
    tracer.count("solver.converged", 1)
    metrics = layers.derive(tracer, {})
    assert metrics["solver.kernel_passes_per_iter"]["value"] == 4.0
    assert metrics["solver.converged_share"]["value"] == 1.0
    assert metrics["grid.plap_calls"]["value"] == 9


@pytest.fixture
def desk_reference():
    return json.loads((HERE / "reference.json").read_text())["desk_solve"]["outputs"]


def _as_outputs(reference):
    out = {}
    for key, spec in reference.items():
        out[key] = spec["equals"] if "equals" in spec else spec.get("value", spec.get("max"))
    return out


def test_comparator_accepts_reference_and_rejects_perturbed_s_d(desk_reference):
    outputs = _as_outputs(desk_reference)
    assert gate.compare(desk_reference, outputs) == []
    spec = desk_reference["S_d"]
    outputs["S_d"] = spec["value"] * (1.0 + 2.0 * spec["rtol"])
    errors = gate.compare(desk_reference, outputs)
    assert len(errors) == 1 and errors[0].startswith("S_d:")
    del outputs["J_minus"]
    assert any(e.startswith("J_minus: missing") for e in gate.compare(desk_reference, outputs))


def test_comparator_kinds():
    reference = {
        "x": {"value": 1.0, "atol": 0.1},
        "dev": {"max": 1e-6},
        "flag": {"equals": False},
    }
    assert gate.compare(reference, {"x": 1.05, "dev": 1e-7, "flag": False}) == []
    bad = gate.compare(reference, {"x": float("nan"), "dev": 2e-6, "flag": True})
    assert [e.split(":")[0] for e in bad] == ["x", "dev", "flag"]


def test_csv_bad_cells_use_strict_float_parsing():
    header = ",".join(gate.SCAN_FLOAT_COLUMNS) + ",q_regime,below_c_infty"
    good = "0.0625,26.3,3.0,1.6,0.12,3.3,87.0,92.5,supercritical,true"
    numpy_repr = "0.03125,25.6,3.1,np.float64(0.96),np.float64(0.03),3.7,91.7,92.5,supercritical,true"
    text = "\n".join([header, good, numpy_repr, numpy_repr]) + "\n"
    assert gate.bad_cells(text) == 4
    for cell in ("1e-3", "-2.5", "3.", ".5", "+7E+02"):
        assert gate.strict_float(cell) == float(cell)
    for cell in ("np.float64(1.0)", "nan", "inf", "1_000", " 1.0", ""):
        assert gate.strict_float(cell) is None
