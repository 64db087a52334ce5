#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written to BENCH_<tag>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --tag NAME \\
        --series p3_solve:10 --series desk_solve:3 --traced p3_solve

Run from the root of the git checkout.  Each run of
`perfbench/run.py --workload W --seed 1 --seconds T --trace 0|1`, with T the
`run_seconds` of BENCHMARK.json, gets a fresh `git archive` checkout of its
commit (no __pycache__) in a temporary directory, removed after the run.
Pair k runs the parent first when k is odd and the change first when k is
even.  A run keeps run.py's last stdout line, its JSON result; a run that
exits non-zero is kept under "failed_runs" with its exit code and the tail
of its stderr.  The record is rewritten after every run, so a series cut
short keeps every run made.  The summary gives, per workload and end-to-end
metric of BENCHMARK.json, the medians and quartiles (linear interpolation)
of both sides, the parent's IQR and its relative spread (IQR over median, the
series' own noise floor), the pairs the change wins, the
change/parent ratio of the medians, the median of the per-pair
change/parent ratios and the exact two-sided sign-test p-value of the wins
over the pairs that are not tied, whether the gain rule is met and whether
the change median is within the metric's end_to_end bound (see summarize);
a series of fewer than ten pairs is marked "indicative".  A --traced
workload gets one --trace 1 run per side.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 1
COMMAND = "python3 perfbench/run.py --workload <workload> --seed {seed} --seconds {seconds:g} --trace <0|1>"
WHAT = ("Alternating parent/change pairs of the benchmark, each run in a fresh git-archive "
        "checkout (no __pycache__), odd pairs parent first and even pairs change first; runs hold the "
        "last stdout line of perfbench/run.py.")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def bench_run(commit: str, workload: str, seconds: float, trace: int) -> tuple:
    """One run.py run in a fresh checkout of commit: (record fields, environment
    record); the fields are {"result": ...}, or {"exit_code", "stderr_tail"}."""
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        archive = subprocess.run(["git", "archive", commit], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(work)], input=archive, check=True)
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=work, capture_output=True, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:]}, {}
    lines = proc.stdout.splitlines()
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment: ")), {})
    return {"result": json.loads(lines[-1])}, env


def _quartiles(values: list) -> list:
    return [float(q) for q in np.percentile(values, [25, 75])]


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of wins against losses (ties left out):
    the chance under a fair coin of a split at least this uneven; 1 with no pairs."""
    n, k = wins + losses, min(wins, losses)
    return min(1.0, 2.0 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n)


def summarize(runs: list, metrics: dict, bounds: dict) -> dict:
    """Per "<workload> seed <seed>": pairs, ops, correctness and, for each metric
    name -> "lower" | "higher" present in every run, the pair statistics.

    parent_relative_spread: the parent IQR over the parent median, so that an
    A/A series (--parent P --change P) states its own noise floor per metric.

    gain_rule_met: at least ten pairs, no larger share of failed operations
    than the parent's, the change wins at least 9/10 of the pairs (ties count for
    neither side) and its median differs from the parent's by more than the
    parent IQR in the better direction.  within_bound (for a metric with a
    relative bound in bounds): the change median is no worse than the
    parent's by more than that bound; "unresolved" when the parent IQR is
    wider than the bound, unless every change run beats every parent run."""
    summary = {}
    for key in dict.fromkeys((r["workload"], r["seed"]) for r in runs):
        group = [r for r in runs if (r["workload"], r["seed"]) == key]
        side = {s: {r["pair"]: r for r in group if r["side"] == s} for s in ("parent", "change")}
        pairs = sorted(side["parent"].keys() & side["change"].keys())
        if not pairs:
            continue
        entry = {
            "change_commit": side["change"][pairs[0]]["commit"],
            "pairs": len(pairs),
            "indicative": len(pairs) < 10,
            "failed_ops": {s: sum(r["result"]["failed"] for r in side[s].values()) for s in side},
            "attempted_ops": {s: sum(r["result"]["attempted"] for r in side[s].values()) for s in side},
            "all_correct": all(r["result"]["correct"] for r in group),
            "metrics": {},
        }
        failed, attempted = entry["failed_ops"], entry["attempted_ops"]
        no_more_failures = failed["change"] * attempted["parent"] <= failed["parent"] * attempted["change"]
        for name, better in metrics.items():
            if not all(name in r["result"]["metrics"] for r in group):
                continue
            value = {s: [side[s][k]["result"]["metrics"][name]["value"] for k in pairs] for s in side}
            q = {s: _quartiles(value[s]) for s in side}
            wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(value["parent"], value["change"]))
            ties = sum(c == p for p, c in zip(value["parent"], value["change"]))
            median = {s: statistics.median(value[s]) for s in side}
            gain = median["parent"] - median["change"] if better == "lower" else median["change"] - median["parent"]
            iqr = q["parent"][1] - q["parent"][0]
            beats_all = (max(value["change"]) < min(value["parent"]) if better == "lower"
                         else min(value["change"]) > max(value["parent"]))
            entry["metrics"][name] = {
                "parent_median": median["parent"],
                "change_median": median["change"],
                "parent_q1_q3": q["parent"],
                "change_q1_q3": q["change"],
                "parent_iqr": iqr,
                "parent_relative_spread": iqr / median["parent"],
                "change_wins": f"{wins}/{len(pairs)}",
                "change_over_parent": median["change"] / median["parent"],
                "median_pair_ratio": statistics.median(c / p for p, c in zip(value["parent"], value["change"])),
                "sign_test_p": sign_test(wins, len(pairs) - wins - ties),
                "gain_rule_met": len(pairs) >= 10 and no_more_failures and 10 * wins >= 9 * len(pairs) and gain > iqr,
            }
            if name in bounds:
                limit = bounds[name] * median["parent"]
                entry["metrics"][name]["within_bound"] = (
                    "unresolved" if iqr > limit and not beats_all else -gain <= limit)
        summary[f"{key[0]} seed {key[1]}"] = entry
    return summary


def hardware(env: dict) -> str:
    gib = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 30
    return (f"{env.get('nproc')}-core {env.get('cpu_model')}, {gib:.1f} GiB, "
            f"Python {env.get('python')}, numpy {env.get('numpy')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", required=True, help="change commit")
    ap.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    ap.add_argument("--series", action="append", default=[], metavar="WORKLOAD:PAIRS")
    ap.add_argument("--traced", action="append", default=[], metavar="WORKLOAD")
    args = ap.parse_args(argv)

    commits = {"parent": git("rev-parse", args.parent + "^{commit}"), "change": git("rev-parse", args.change + "^{commit}")}
    bench = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"] if "bound" in m}
    seconds = bench["run_seconds"]
    runs, traced, failed, env = [], [], [], {}
    out = {
        "what": WHAT,
        "command": COMMAND.format(seed=SEED, seconds=seconds),
        "parent_commit": commits["parent"],
        "change_commits": [commits["change"]],
        "hardware": hardware(env),
        "summary": {},
        "runs": runs,
        "traced_runs": traced,
        "failed_runs": failed,
    }
    plan = [(w, int(n), 0) for w, n in (s.split(":") for s in args.series)] + [(w, 1, 1) for w in args.traced]
    for workload, n_pairs, trace in plan:
        for pair in range(1, n_pairs + 1):
            for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                fields, run_env = bench_run(commits[side], workload, seconds, trace)
                env = run_env or env
                record = {"workload": workload, "seed": SEED, "pair": pair, "side": side, "trace": trace,
                          **fields, "commit": commits[side]}
                (failed if "exit_code" in fields else traced if trace else runs).append(record)
                wall = fields["result"].get("metrics", {}).get("wall_s") if "result" in fields else fields["exit_code"]
                print(f"{workload} pair {pair} {side}: {json.dumps(wall)}", file=sys.stderr)
                out["hardware"], out["summary"] = hardware(env), summarize(runs, metrics, bounds)
                Path(f"BENCH_{args.tag}.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
