"""Batch command-line front end.

Subcommands: constants | project | solve | bubble-scan | curves.  Every run
is driven by one JSON config (--config), writes into --out, and is fully
deterministic for a fixed config and seed: identical reruns produce
byte-identical files.  JSON outputs embed the config hash; CSV outputs get a
sidecar meta JSON; each run writes a manifest with the SHA-256 of every
file the run wrote, re-checkable with verify_output_dir().

Exit codes: 0 success (for solve: all cross-checks pass), 1 internal or
numerical failure, 2 user or configuration error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import bubbles, constants as consts, fibering, solver
from .config import RunConfig, load_config
from .errors import ConfigError, NehariFracError, SupportError, ZeroPairError
from .fieldio import load_field, save_field
from .grid import Field, FieldPair


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # np.float64 is a float whose repr is "np.float64(...)"
    return str(value)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, cfg: RunConfig, command: str, files):
    manifest = {
        "command": command,
        "config_hash": cfg.config_hash,
        "params": cfg.params.to_dict(),
        "grid": cfg.grid,
        "seeds": list(cfg.seeds),
        "tolerances": cfg.tolerances,
        "files": {name: _sha256(out / name) for name in sorted(files)},
    }
    _write_json(out / "manifest.json", manifest)


def verify_output_dir(out_dir) -> bool:
    """Re-check the SHA-256 of every file recorded in the run manifest; a
    missing file fails the check."""
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    return all((out / name).is_file() and _sha256(out / name) == digest
               for name, digest in manifest["files"].items())


class _Outputs:
    """Writes a command's files into --out and records their names for the
    manifest; each JSON payload gets the config hash.  The writers are looked
    up as module globals at each call, so a wrapper installed on them from
    outside sees every write."""

    def __init__(self, out_dir: Path, config_hash: str):
        self.dir = out_dir
        self.config_hash = config_hash
        self.files = []

    def json(self, name: str, payload: dict) -> dict:
        payload["config_hash"] = self.config_hash
        _write_json(self.dir / name, payload)
        self.files.append(name)
        return payload

    def csv(self, name: str, header, rows):
        _write_csv(self.dir / name, header, rows)
        self.files.append(name)

    def field(self, dom, u, name: str):
        self.files += [path.name for path in save_field(dom, u, self.dir / name)]


def _quotient_tol(cfg: RunConfig) -> float:
    return cfg.tolerance("quotient_flat", consts.QUOTIENT_FLAT_TOL)


# ---------------------------------------------------------------------------
# Subcommands: cmd_*(cfg, dom, seed, args, out) -> (summary, exit code)
# ---------------------------------------------------------------------------

def cmd_constants(cfg: RunConfig, dom, seed: int, args, out: _Outputs):
    s_d, s_min, s_ab_d, pair_min = consts.compute_S_coupled(dom, cfg.params, seed=seed, tol=_quotient_tol(cfg))
    payload = consts.thresholds(cfg.params, dom.volume, s_d, s_ab_d).to_dict()
    payload.update(seed=seed, domain=dom.describe(), domain_hash=dom.domain_hash())
    out.field(dom, s_min, "s_minimizer.field")
    out.field(dom, pair_min.u, "s_ab_minimizer_u.field")
    out.field(dom, pair_min.v, "s_ab_minimizer_v.field")
    return out.json("constants.json", payload), 0


def _load_pair(dom, u_path, v_path) -> FieldPair:
    if not u_path or not v_path:
        raise ConfigError("field files needed: set u and v in the command's block (project also takes --u and --v)")
    return FieldPair(load_field(dom, u_path), load_field(dom, v_path))


def _curve_rows(triple, params, report, block):
    if report.t1 is not None:
        lo_default = report.t1 / 10.0
    elif report.t_max:
        lo_default = report.t_max / 10.0
    else:
        lo_default = 0.1
    if report.t2 is not None:
        hi_default = 3.0 * report.t2
    elif report.t_max:
        hi_default = 10.0 * report.t_max
    else:
        hi_default = 10.0
    t_lo = float(block.get("t_lo", lo_default))
    t_hi = float(block.get("t_hi", hi_default))
    if not t_lo < t_hi:
        raise ConfigError(f"curves needs t_lo < t_hi, got t_lo = {t_lo!r} and t_hi = {t_hi!r}")
    samples = block.get("samples", 2000)
    return fibering.sample_curves(triple, params, t_lo, t_hi, samples)


CURVE_HEADER = ("t", "phi", "phi_prime", "phi_second", "psi")


def cmd_project(cfg: RunConfig, dom, seed: int, args, out: _Outputs):
    block = cfg.project or {}
    pair = _load_pair(dom, args.u or block.get("u"), args.v or block.get("v"))
    payload = fibering.project(cfg.params, dom, pair).to_dict()
    payload["domain_hash"] = dom.domain_hash()
    return out.json("fibering_report.json", payload), 0


def cmd_solve(cfg: RunConfig, dom, seed: int, args, out: _Outputs):
    params = cfg.params
    if params.lam <= 0 or params.mu <= 0:
        raise ConfigError("parameters must be positive: solve needs lambda > 0 and mu > 0")
    s_d, _, s_ab_d, pair_min = consts.compute_S_coupled(dom, params, seed=seed, tol=_quotient_tol(cfg))
    limits = consts.thresholds(params, dom.volume, s_d, s_ab_d)
    plus, minus = solver.solve_two(params, dom, seed, constants=limits, s_ab_minimizer=pair_min)

    for tag, rep in (("plus", plus), ("minus", minus)):
        payload = rep.to_dict()
        payload.update(domain_hash=dom.domain_hash(), S_d=s_d, S_ab_d=s_ab_d)
        out.json(f"solution_{tag}.json", payload)
        out.field(dom, rep.pair.u, f"solution_{tag}_u.field")
        out.field(dom, rep.pair.v, f"solution_{tag}_v.field")
    checks = {k: (bool(v) if isinstance(v, (bool, np.bool_)) else v) for k, v in plus.checks.items()}
    ok = all(v for v in checks.values() if isinstance(v, bool))
    summary = {"energy_plus": plus.energy, "energy_minus": minus.energy, "checks": checks, "all_checks_pass": ok}
    return summary, 0 if ok else 1


BUBBLE_HEADER = (
    "eps", "seminorm_p_pow", "lpstar_pow", "excess", "deficit",
    "t_star", "sup_full", "q_regime", "c_infty", "below_c_infty",
)


def cmd_bubble_scan(cfg: RunConfig, dom, seed: int, args, out: _Outputs):
    params = cfg.params
    block = cfg.bubble_scan or {}
    delta = float(block.get("delta", dom.box_length / 4.0))
    theta = float(block.get("theta", 2.0))
    if "eps_list" not in block:
        raise ConfigError("bubble_scan block needs eps_list")
    eps_list = block["eps_list"]
    for e in eps_list:
        if not 0 < e <= delta / 2.0:
            raise ConfigError(f"bubble_scan eps entry {e} violates 0 < eps <= delta/2 = {delta / 2.0}")
    if not bubbles.support_fits(dom, delta, theta):
        raise ConfigError(f"{cfg.where('bubble_scan')}: bubble_scan.theta * bubble_scan.delta = {theta * delta!r} "
                          f"exceeds half the box length {dom.box_length / 2.0!r}: the centred bubble does not fit")
    for e in eps_list:  # SupportError (exit 2) for a bubble that misses every node, before any quotient solve
        bubbles.bubble_field(dom, params, e, delta, theta)
    lam = float(block.get("lambda", params.lam))
    mu = float(block.get("mu", params.mu))
    method = block.get("method", "lattice")

    if ("s_d" in block) != ("s_ab_d" in block):
        raise ConfigError("bubble_scan needs both s_d and s_ab_d, or neither")
    if "s_d" in block:
        s_d, s_ab_d = float(block["s_d"]), float(block["s_ab_d"])
    else:
        s_d, _, s_ab_d, _ = consts.compute_S_coupled(dom, params, seed=seed, tol=_quotient_tol(cfg))

    norm = bubbles.norm_estimate_scan(dom, params, delta, theta, eps_list, s_ref=s_d, method=method)
    limits = consts.thresholds(params.with_weights(lam, mu), dom.volume, s_d, s_ab_d)
    sup = bubbles.sup_energy_scan(dom, params, delta, theta, eps_list, limits)

    sup_by_eps = {r.eps: r for r in sup}
    rows = []
    for nr in norm.rows:
        sr = sup_by_eps[nr.eps]
        rows.append((
            nr.eps, nr.seminorm_p_pow, nr.lpstar_pow, nr.excess, nr.deficit,
            sr.t_star, sr.sup_full, sr.q_regime, sr.c_infty, sr.below_c_infty,
        ))
    out.csv("bubble_scan.csv", BUBBLE_HEADER, rows)
    meta = {
        "method": norm.method,
        "delta": delta,
        "theta": theta,
        "lambda": lam,
        "mu": mu,
        "S_d": s_d,
        "S_ab_d": s_ab_d,
        "sem_reference": norm.sem_reference,
        "lp_reference": norm.lp_reference,
        "excess_slope": norm.excess_slope,
        "deficit_slope": norm.deficit_slope,
        "excess_slope_predicted": norm.excess_slope_predicted,
        "deficit_slope_predicted": norm.deficit_slope_predicted,
    }
    return out.json("bubble_scan.meta.json", meta), 0


def cmd_curves(cfg: RunConfig, dom, seed: int, args, out: _Outputs):
    params = cfg.params
    block = cfg.curves or {}
    if block.get("seeded", False):
        if params.lam <= 0 or params.mu <= 0:
            raise ConfigError("seeded curves need lambda > 0 and mu > 0 for a two-root ray")
        rng = np.random.default_rng(seed)
        pair = FieldPair(
            Field(np.abs(rng.standard_normal(dom.n_interior)) + 1e-3),
            Field(np.abs(rng.standard_normal(dom.n_interior)) + 1e-3),
        )
    else:
        pair = _load_pair(dom, block.get("u"), block.get("v"))
    report = fibering.project(params, dom, pair)
    rows = _curve_rows(report.triple, params, report, block)
    out.csv("curves.csv", CURVE_HEADER, rows)
    meta = {"t_max": report.t_max, "t1": report.t1, "t2": report.t2, "outcome": report.outcome}
    return out.json("curves.meta.json", meta), 0


COMMANDS = {
    "constants": cmd_constants,
    "project": cmd_project,
    "solve": cmd_solve,
    "bubble-scan": cmd_bubble_scan,
    "curves": cmd_curves,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nehari-frac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true")
        if name == "project":
            p.add_argument("--u", default=None, help="field file for the first component")
            p.add_argument("--v", default=None, help="field file for the second component")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = _Outputs(Path(args.out), cfg.config_hash)
        out.dir.mkdir(parents=True, exist_ok=True)
        dom = cfg.build_domain()
        seed = int(cfg.seeds[0]) if args.seed is None else args.seed
        summary, code = COMMANDS[args.command](cfg, dom, seed, args, out)
        _write_manifest(out.dir, cfg, args.command, out.files)
        if not args.quiet:
            print(json.dumps(summary, indent=2, sort_keys=True))
        return code
    except (ConfigError, SupportError, ZeroPairError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NehariFracError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
