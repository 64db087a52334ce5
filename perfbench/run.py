"""Benchmark of the nehari_frac CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload desk_solve --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Every operation is a fresh child process started from this one parent
(`perfbench/child.py`) with NEHARI_FRAC_THREADS = min(2, nproc) and the
BLAS/OpenMP pools at one thread.  An untraced run makes SETUP_PROBES set-up
probes (import, config load, grid build) and then repeats the workload's CLI
command until the next repetition would end past --seconds (at least once).

--trace 0 reports the end-to-end metrics (medians over the run):
  wall_s       child start to exit of one workload execution
  setup_s      child start to the return of build_grid, in a probe
  cpu_s        user + system CPU time of one workload execution
  peak_rss_mb  the child's peak resident set size
--trace 1 makes one untraced and one traced execution and reports the
per-layer metrics of the traced one (perfbench/layers.py), its wall time,
the tracing overhead (traced minus untraced wall), the kernel shares, and
the number of bad float cells in bubble_scan.csv.

An operation fails when its exit code is not 0, its output manifest does
not verify, or a gated output leaves its tolerance in reference.json.  The
last stdout line is the JSON result; lines before it are for people.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from workloads import WORKLOADS, cli_args, make_config  # noqa: E402

SETUP_PROBES = 7
DEADLINE_S = 170.0        # stop starting work so the whole run ends within 180 s
POLL_S = 0.005


def pinned_env() -> dict:
    env = dict(os.environ)
    env["NEHARI_FRAC_THREADS"] = str(min(2, os.cpu_count() or 1))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment_record(env: dict) -> dict:
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(str(index / "level")), _read(str(index / "type"))
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(str(index / "size"))
    record = {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": sys.version.split()[0],
    }
    for package in ("numpy", "scipy"):
        try:
            record[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            record[package] = "missing"
    for name in ("NEHARI_FRAC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        record[name] = env[name]
    return record


class Deadline(Exception):
    pass


def spawn(spec: dict, env: dict, deadline: float):
    """Run child.py on spec; returns (start, wall_s, cpu_s, rss_mb, exit code).
    The child is killed, and Deadline raised, when it outlives deadline."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)], env=env)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise Deadline(f"child exceeded the {DEADLINE_S:.0f} s run deadline")
        time.sleep(POLL_S)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, root: Path, name: str, seed: int, env: dict, reference: dict):
        self.root, self.name, self.seed, self.env = root, name, seed, env
        self.workload = WORKLOADS[name]
        self.reference = reference
        self.work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = self.failed = 0
        self.errors = []
        self.csv_bad_cells = 0
        self.spans = {}

    def prepare(self):
        desk = json.loads((self.root / "configs" / "desk.json").read_text())
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(make_config(desk, self.name), indent=2))

    def _spec(self, mode: str, tag: str, trace: bool = False) -> dict:
        out = self.work / f"out-{tag}"
        argv = [self.workload.command, "--config", str(self.config), "--out", str(out), "--quiet"]
        return {
            "mode": mode,
            "src": str(self.root / "src"),
            "config": str(self.config),
            "out": str(out),
            "argv": argv + cli_args(self.name, self.seed),
            "trace": trace,
            "tail": self.workload.scalar_tail,
            "result": str(self.work / f"result-{tag}.json"),
        }

    def _fail(self, message: str):
        self.failed += 1
        self.errors.append(message)

    def setup_probe(self, k: int):
        spec = self._spec("setup", f"setup{k}")
        self.attempted += 1
        start, _, _, _, rc = spawn(spec, self.env, self.deadline)
        if rc != 0:
            self._fail(f"setup probe {k}: exit code {rc}")
            return None
        return json.loads(Path(spec["result"]).read_text())["setup_done"] - start

    def execute(self, k: int, trace: bool = False):
        """One workload execution; returns (wall, cpu, rss, child result)."""
        spec = self._spec("run", f"run{k}", trace)
        self.attempted += 1
        _, wall, cpu, rss, rc = spawn(spec, self.env, self.deadline)
        result_path = Path(spec["result"])
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        errors = [] if rc == 0 else [f"exit code {rc}"]
        if rc == 0 and not result.get("verified"):
            errors.append("manifest does not verify")
        if rc == 0:
            errors += self.check(Path(spec["out"]), result)
        if errors:
            self._fail(f"execution {k}: " + "; ".join(errors))
        return wall, cpu, rss, result

    def check(self, out: Path, result: dict) -> list:
        try:
            if self.workload.command == "solve":
                outputs = gate.solve_outputs(out)
                outputs.update(result.get("tail", {}))
            else:
                outputs, self.csv_bad_cells = gate.scan_outputs(out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"outputs unreadable: {exc}"]
        return gate.compare(self.reference, outputs)

    def measure(self, seconds: float, trace: bool) -> dict:
        if trace:
            untraced = self.execute(0)
            traced = self.execute(1, trace=True)
            return self.layer_metrics(untraced, traced)
        setups = [self.setup_probe(k) for k in range(SETUP_PROBES)]
        setups = [s for s in setups if s is not None]
        began = time.monotonic()
        reps = [self.execute(0)]
        while time.monotonic() - began + reps[-1][0] <= seconds:
            reps.append(self.execute(len(reps)))
        metrics = {
            "wall_s": (statistics.median(r[0] for r in reps), "s"),
            "cpu_s": (statistics.median(r[1] for r in reps), "s"),
            "peak_rss_mb": (statistics.median(r[2] for r in reps), "MB"),
        }
        if setups:
            metrics["setup_s"] = (statistics.median(setups), "s")
        return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    def layer_metrics(self, untraced, traced) -> dict:
        layers = traced[3].get("layers", {})
        wall = traced[0]
        extra = {
            "trace.wall_s": (wall, "s"),
            "trace.overhead_s": (wall - untraced[0], "s"),
            "cli.csv_bad_cells": (self.csv_bad_cells, "count"),
        }
        kernel = [layers.get(k, {}).get("value") for k in ("grid.seminorm_s", "grid.plap_s")]
        angular = layers.get("radial_quad.kernel_s", {}).get("value")
        extra["grid.kernel_share"] = (None if None in kernel else sum(kernel) / wall, "fraction")
        extra["radial_quad.kernel_share"] = (None if angular is None else angular / wall, "fraction")
        metrics = dict(layers)
        for name, (value, unit) in extra.items():
            metrics[name] = {"value": value, "unit": unit}
        self.spans = traced[3].get("spans", {})
        return metrics

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def report(name: str, metrics: dict, run: Run) -> None:
    print(f"== {name}: ops_failed {run.failed} of ops_attempted {run.attempted}")
    for error in run.errors:
        print(f"   failed: {error}")
    for metric, entry in metrics.items():
        value = entry["value"]
        shown = "absent (" + ", ".join(entry["absent"]) + ")" if value is None else f"{value:.6g}"
        print(f"   {metric:32s} {shown} {entry['unit']}")
    for span, entry in sorted(run.spans.items()):
        print(f"   span {span:26s} calls {entry['calls']:>9d}  self {entry['self_s']:9.3f} s"
              f"  total {entry['total_s']:9.3f} s")


def run_one(root: Path, name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    reference = json.loads((HERE / "reference.json").read_text())[name]["outputs"]
    run = Run(root, name, seed, env, reference)
    try:
        run.prepare()
        metrics = run.measure(seconds, trace)
    except Deadline as exc:
        run._fail(str(exc))
        metrics = {}
    finally:
        run.cleanup()
    report(name, metrics, run)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/nehari_frac/cli.py", "configs/desk.json") if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of a nehari_frac checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    env = pinned_env()
    print("environment: " + json.dumps(environment_record(env), sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_one(root, name, args.seed, args.seconds, bool(args.trace), env)
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
