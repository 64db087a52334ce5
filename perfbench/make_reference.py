"""Write perfbench/reference.json from one untraced execution per workload.

    python3 perfbench/make_reference.py        (from the checkout root)

Run it only on a commit whose outputs are to become the reference.  Each
tolerance is derived from the tolerance of the code that produced the
output; the "from" field of every entry says how.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from run import HERE, Run, pinned_env
import gate

QUAD_RTOL = 1e-5   # quadrature vs the Fourier closed form in tests/test_radial_quad.py


def solve_reference(root: Path, run: Run, outputs: dict, tail: dict) -> dict:
    sys.path.insert(0, str(root / "src"))
    from nehari_frac import constants
    from nehari_frac.config import load_config

    cfg = load_config(run.config)
    params, dom = cfg.params, cfg.build_domain()
    s_rtol = float(f'{10 * cfg.tolerance("quotient_flat", constants.QUOTIENT_FLAT_TOL):.3g}')
    ref = {
        key: {"value": outputs[key], "rtol": s_rtol, "from": "10 x quotient_flat (quotient descent stop)"}
        for key in ("S_d", "S_ab_d")
    }
    for key in ("J_plus", "J_minus"):
        ref[key] = {"value": outputs[key], "rtol": 1e-8, "from": "10 x grad_rtol 1e-9 (branch descent stop)"}

    def closed_forms(s_d, s_ab):
        c0 = constants.c0(params, s_d, dom.volume)
        return (
            constants.c_infty(params, s_ab, c0, params.lam, params.mu),
            constants.d0_bound(params, s_d, dom.volume, params.lam, params.mu).value,
        )

    base = closed_forms(outputs["S_d"], outputs["S_ab_d"])
    spread = [0.0, 0.0]
    for fs in (1 - s_rtol, 1 + s_rtol):
        for fab in (1 - s_rtol, 1 + s_rtol):
            moved = closed_forms(outputs["S_d"] * fs, outputs["S_ab_d"] * fab)
            spread = [max(a, abs(m - b)) for a, m, b in zip(spread, moved, base)]
    for key, atol in zip(("c_infty", "d0"), spread):
        ref[key] = {"value": outputs[key], "atol": atol, "from": "S_d and S_ab_d moved by their rtol"}
    for key in ("scalar_energy_lam", "scalar_energy_mu"):
        if key in tail:
            ref[key] = {"value": tail[key], "rtol": 1e-6, "from": "scalar solve acceptance, relative gradient 1e-6"}
    if "semitrivial_deviation" in tail:
        ref["semitrivial_deviation"] = {"max": 1e-6, "from": "semitrivial_tmax_check stationarity_rtol"}
    return ref


def _richardson_factor(values):
    """Amplification of a relative error in the values by the Richardson
    tail d r / (1 - r), with r the ratio of the last two differences."""
    d = np.abs(np.diff(values))
    r = d[-1] / d[-2]
    return 1.0 + 2.0 * (1.0 + r) / (1.0 - r) ** 2


def _slope_atol(eps, delta, values, residuals, ref_abs):
    """First-order bound on the log-log slope when each value moves by
    QUAD_RTOL and the reference by ref_abs."""
    x = np.log(np.asarray(eps) / delta)
    w = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    move = (QUAD_RTOL * np.abs(values) + ref_abs) / np.abs(residuals)
    return float(np.sum(np.abs(w) * move))


def scan_reference(run: Run, outputs: dict) -> dict:
    cfg = json.loads(run.config.read_text())["bubble_scan"]
    ref = {}
    rows = sorted({key.split("/")[0] for key in outputs if key.startswith("eps=")},
                  key=lambda k: -float(k[4:]))
    eps = [float(k[4:]) for k in rows]
    for row in rows:
        ref[f"{row}/seminorm_p_pow"] = {"value": outputs[f"{row}/seminorm_p_pow"], "rtol": QUAD_RTOL,
                                        "from": "quadrature accuracy vs the Fourier closed form"}
        ref[f"{row}/lpstar_pow"] = {"value": outputs[f"{row}/lpstar_pow"], "rtol": QUAD_RTOL,
                                    "from": "quadrature accuracy vs the Fourier closed form"}
        ref[f"{row}/sup_full"] = {"value": outputs[f"{row}/sup_full"], "rtol": 1e-10,
                                  "from": "100 x ROOT_RTOL (fibering root finding)"}
        ref[f"{row}/below_c_infty"] = {"equals": outputs[f"{row}/below_c_infty"], "from": "exact"}
    for column, key, slope in (("seminorm_p_pow", "sem_reference", "excess_slope"),
                               ("lpstar_pow", "lp_reference", "deficit_slope")):
        values = np.array([outputs[f"{row}/{column}"] for row in rows])
        limit = outputs[key]
        ref_rtol = QUAD_RTOL * _richardson_factor(values)
        ref[key] = {"value": limit, "rtol": ref_rtol,
                    "from": "quadrature rtol through the Richardson tail"}
        atol = _slope_atol(eps, cfg["delta"], values, values - limit, ref_rtol * abs(limit))
        ref[slope] = {"value": outputs[slope], "atol": atol,
                      "from": "quadrature and reference tolerances through the least-squares fit"}
    return ref


def main() -> int:
    root = Path.cwd()
    env = pinned_env()
    reference = {
        "_about": "Gated outputs of the reference commit, one execution per workload "
                  "(python3 perfbench/make_reference.py).",
    }
    for name in ("desk_solve", "p3_solve", "quad_scan"):
        run = Run(root, name, 0, env, {})
        try:
            run.prepare()
            wall, _, _, result = run.execute(0)
            if run.failed:
                raise SystemExit(f"{name}: {run.errors}")
            out = run.work / "out-run0"
            if run.workload.command == "solve":
                outputs = solve_reference(root, run, gate.solve_outputs(out), result.get("tail", {}))
            else:
                outputs = scan_reference(run, gate.scan_outputs(out)[0])
        finally:
            run.cleanup()
        reference[name] = {"outputs": outputs}
        print(f"{name}: {len(outputs)} gated outputs, {wall:.1f} s", flush=True)
    text = json.dumps(reference, indent=1, sort_keys=True, allow_nan=False)
    (HERE / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
