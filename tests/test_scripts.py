import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_two_solutions_smoke():
    """The experiment script runs end to end on a small grid."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_two_solutions.py"), "--m", "6"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    chain = [line for line in proc.stdout.splitlines() if line.startswith("chain: ")]
    assert len(chain) == 1
    assert " < 0 < " in chain[0] and " <= " in chain[0]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, pair, side, wall, rss, failed=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": workload, "seed": 1, "pair": pair, "side": side, "trace": 0, "commit": side[0] * 40,
            "result": {"attempted": 10, "failed": failed, "correct": failed == 0, "metrics": metrics}}


def test_bench_pairs_summary_on_synthetic_runs():
    """Four pairs with known medians, quartiles, wins and ratio; a tie is
    no win, a metric missing from a run is left out, and an unpaired run
    counts in the op totals only."""
    walls = {"parent": [2.0, 4.0, 3.0, 5.0], "change": [1.0, 4.5, 2.0, 2.5]}
    runs = [_run("p3_solve", k + 1, side, walls[side][k], 40.0 + (side == "change" and k > 0))
            for k in range(4) for side in walls]
    runs.append(_run("p3_solve", 5, "parent", 9.0, 40.0, failed=1))
    runs.append(_run("quad_scan", 1, "parent", 1.0, 86.0))
    runs.append(_run("quad_scan", 1, "change", 0.5, 86.0))
    del runs[-1]["result"]["metrics"]["peak_rss_mb"]
    summary = _bench_pairs().summarize(runs, {"wall_s": "lower", "peak_rss_mb": "lower", "setup_s": "lower"},
                                       {"wall_s": 0.25, "peak_rss_mb": 0.01})
    assert list(summary) == ["p3_solve seed 1", "quad_scan seed 1"]
    p3 = summary["p3_solve seed 1"]
    assert p3["change_commit"] == "c" * 40 and p3["pairs"] == 4 and p3["indicative"] is True
    assert p3["failed_ops"] == {"parent": 1, "change": 0} and p3["attempted_ops"] == {"parent": 50, "change": 40}
    assert p3["all_correct"] is False
    assert p3["metrics"]["wall_s"] == {
        "parent_median": 3.5, "change_median": 2.25,
        "parent_q1_q3": [2.75, 4.25], "change_q1_q3": [1.75, 3.0], "parent_iqr": 1.5,
        "change_wins": "3/4", "change_over_parent": 2.25 / 3.5,
        "median_pair_ratio": (0.5 + 2.0 / 3.0) / 2,  # of the pair ratios 1/2, 9/8, 2/3, 1/2
        "sign_test_p": 0.625,  # 3 wins, 1 loss: 2 (1 + 4) / 16
        "gain_rule_met": False,  # 4 pairs, 3/4 wins, and the median gain 1.25 is inside the IQR 1.5
        "within_bound": "unresolved",  # the IQR 1.5 is wider than 0.25 * 3.5, and 4.5 > 2
    }
    # rss: pair 1 tied, three losses, so the test runs on 3 pairs: 2 / 8
    assert p3["metrics"]["peak_rss_mb"]["change_wins"] == "0/4"
    assert p3["metrics"]["peak_rss_mb"]["sign_test_p"] == 0.25
    # the change median 41 is 2.5% above the parent's 40, outside a 1% bound
    assert p3["metrics"]["peak_rss_mb"]["gain_rule_met"] is False
    assert p3["metrics"]["peak_rss_mb"]["within_bound"] is False
    quad = summary["quad_scan seed 1"]["metrics"]
    assert list(quad) == ["wall_s"]
    # one win of one pair, the median gain 0.5 above the parent IQR 0, but fewer than ten pairs
    assert quad["wall_s"]["gain_rule_met"] is False and quad["wall_s"]["within_bound"] is True


def test_bench_pairs_verdicts_on_ten_pairs():
    """Ten pairs, the change winning nine: the gain rule holds, but not on
    nine pairs nor with a larger share of failed operations; a parent IQR
    wider than the bound leaves the bound verdict unresolved unless every
    change run beats every parent run."""
    walls = {"parent": [10.0 + k for k in range(10)], "change": [4.0 + k for k in range(9)] + [20.0]}
    rss = {"parent": [40.0 + k for k in range(10)], "change": [30.0] * 10}

    def summary(pairs, change_failed=0):
        runs = [_run("quad_scan", k + 1, side, walls[side][k], rss[side][k],
                     failed=change_failed if (side, k) == ("change", 0) else 0)
                for k in range(pairs) for side in walls]
        metrics = {"wall_s": "lower", "peak_rss_mb": "lower"}
        return _bench_pairs().summarize(runs, metrics, {"wall_s": 0.25, "peak_rss_mb": 0.1})["quad_scan seed 1"]

    ten = summary(10)
    # medians 14.5 and 8.5, parent IQR 16.75 - 12.25 = 4.5 < 6, 9/10 wins
    assert ten["metrics"]["wall_s"]["change_wins"] == "9/10" and ten["metrics"]["wall_s"]["gain_rule_met"] is True
    # the IQR 4.5 is wider than 0.25 * 14.5, and the change's 20.0 is above the parent's 10.0
    assert ten["metrics"]["wall_s"]["within_bound"] == "unresolved"
    # the IQR 4.5 is wider than 0.1 * 44.5, but every change run (30) is below every parent run
    assert ten["metrics"]["peak_rss_mb"]["within_bound"] is True
    assert summary(9)["metrics"]["wall_s"]["gain_rule_met"] is False
    assert summary(10, change_failed=1)["metrics"]["wall_s"]["gain_rule_met"] is False


def test_sign_test_exact_values():
    """Two-sided binomial tails at 1/2: 10 of 10 gives 2/1024, 9 of 10 gives
    22/1024, 8 of 10 gives 112/1024; a balanced split and no pairs give 1."""
    sign_test = _bench_pairs().sign_test
    assert sign_test(10, 0) == sign_test(0, 10) == 2 / 1024
    assert sign_test(9, 1) == 22 / 1024 and sign_test(8, 2) == 112 / 1024
    assert sign_test(5, 5) == sign_test(0, 0) == sign_test(2, 1) == 1.0


def test_bench_pairs_summary_reproduces_a_committed_record():
    """The p3_solve summary of BENCH_pr15.json, rebuilt from its own runs;
    the record predates the indicative label, the median pair ratio, the
    sign test and the gain and bound verdicts."""
    record = json.loads((ROOT / "BENCH_pr15.json").read_text())
    want = record["summary"]["p3_solve seed 1"]
    runs = [r for r in record["runs"] if r["workload"] == "p3_solve"]
    metrics = {name: "lower" for name in want["metrics"]}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = _bench_pairs().summarize(runs, metrics, bounds)
    got = summary["p3_solve seed 1"]
    assert got.pop("indicative") is (want["pairs"] < 10)
    for entry in got["metrics"].values():
        del entry["median_pair_ratio"], entry["sign_test_p"], entry["gain_rule_met"], entry["within_bound"]
    assert summary == {"p3_solve seed 1": want}


def test_bench_pairs_main_keeps_every_run(monkeypatch, tmp_path):
    """Two p3_solve pairs (the second change first) and a traced pair, with
    the benchmark replaced by a stub: the failed run is kept with its exit
    code, the record on disk holds every run made, and the exit status is 1."""
    module = _bench_pairs()
    calls = []

    def fake_run(commit, workload, seconds, trace):
        calls.append((commit, workload, seconds, trace))
        if len(calls) == 3:
            return {"exit_code": 2, "stderr_tail": "Traceback"}, {}
        wall = {"value": 1.0 if commit == "c" * 40 else 2.0, "unit": "s"}
        return {"result": {"attempted": 1, "failed": 0, "correct": True, "metrics": {"wall_s": wall}}}, {"nproc": 2}

    monkeypatch.setattr(module, "git", lambda *args: ("p" if args[1].startswith("P") else "c") * 40)
    monkeypatch.setattr(module, "bench_run", fake_run)
    monkeypatch.chdir(tmp_path)
    bench = {"run_seconds": 45, "end_to_end": [{"name": "wall_s", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    assert module.main(["--parent", "P", "--change", "C", "--tag", "t", "--series", "p3_solve:2",
                        "--traced", "p3_solve"]) == 1
    assert [(c[0][0], c[3]) for c in calls] == [("p", 0), ("c", 0), ("c", 0), ("p", 0), ("p", 1), ("c", 1)]
    assert all(c[2] == 45 for c in calls)
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["command"] == "python3 perfbench/run.py --workload <workload> --seed 1 --seconds 45 --trace <0|1>"
    assert [(r["pair"], r["side"]) for r in record["runs"]] == [(1, "parent"), (1, "change"), (2, "parent")]
    assert [(r["pair"], r["side"], r["exit_code"]) for r in record["failed_runs"]] == [(2, "change", 2)]
    assert len(record["traced_runs"]) == 2
    assert record["summary"]["p3_solve seed 1"]["pairs"] == 1
