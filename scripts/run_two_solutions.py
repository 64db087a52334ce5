#!/usr/bin/env python3
"""End-to-end desk experiment: find both Nehari-branch solutions.

Computes the discrete constants on the requested grid, places the weights at
a fraction of the discrete smallness threshold, minimizes on both branches
and prints the energy chain J+ < 0 < d0 <= J- < c_infty together with the
solution diagnostics.
"""
import argparse
import json

import nehari_frac as nf


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=12, help="interior nodes per axis")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--sigma-frac", type=float, default=1e-3,
                    help="combined weight as a fraction of the discrete Lambda_1")
    ap.add_argument("--starts", type=int, default=4)
    args = ap.parse_args()

    params0 = nf.ModelParams(n=2, p=2.0, s=0.4, q=1.8, alpha=5 / 3, beta=5 / 3)
    dom = nf.build_grid(2, args.m, 1.0, 1.0, params0)
    route = "FFT convolution" if dom.kernel_hat is not None else f"pair list, {dom.n_pairs} pairs"
    print(f"grid: m={args.m}, {dom.n_interior} interior nodes, kernel pass by {route}")

    s_d, s_min, s_ab, pair_min = nf.compute_S_coupled(dom, params0, seed=args.seed)
    lam1 = nf.lambda1(params0, s_d, dom.volume)
    sigma = args.sigma_frac * lam1
    lam = (sigma / 2.0) ** ((params0.p - params0.q) / params0.p)
    params = params0.with_weights(lam, lam)
    print(f"S_d={s_d:.6f}  S_ab_d={s_ab:.6f}  ratio err={nf.ratio_check(s_d, s_ab, params0):.2e}")
    print(f"Lambda_1={lam1:.4g}  sigma={sigma:.4g}  lam=mu={lam:.6f}")

    opts = nf.SolveOptions(seed=args.seed, n_starts=args.starts)
    plus, minus = nf.solve_two(params, dom, opts, s_d=s_d, s_ab_d=s_ab, s_ab_minimizer=pair_min)
    d0 = nf.d0_bound(params, s_d, dom.volume, lam, lam)
    c_inf = nf.c_infty(params, s_ab, nf.c0(params, s_d, dom.volume), lam, lam)
    print(f"\nJ+ = {plus.energy:.6e}   ({plus.iterations} iters, residual {plus.residual:.2e})")
    print(f"J- = {minus.energy:.6f}   ({minus.iterations} iters, residual {minus.residual:.2e})")
    print(f"chain: {plus.energy:.3e} < 0 < {d0.value:.4f} <= {minus.energy:.4f} < {c_inf:.4f}")
    print(json.dumps({k: (bool(v) if isinstance(v, bool) else v) for k, v in plus.checks.items()},
                     indent=2, default=float))


if __name__ == "__main__":
    main()
