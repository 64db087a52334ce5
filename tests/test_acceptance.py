"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk configuration is the m = 12 square grid with p = 2, s = 0.4,
q = 1.8, alpha = beta = 5/3 (critical coupling).  Run with

    pytest tests/test_acceptance.py -v

The PASS lines are printed outside pytest's capture so they appear live.
"""
import json
import time

from unittest import mock

import numpy as np
import pytest

import nehari_frac as nf
from nehari_frac import solver
from nehari_frac.cli import main as cli_main

from conftest import (
    DESK, balanced_params, decay_check, energy, first_variation, phi_second_expressions, psi_prime, random_pair,
    scale_pair, t_star_by_search, xi_prime,
)

ACC_SEED = 20240


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def acc_dom():
    params0 = nf.ModelParams(**DESK)
    return params0, nf.build_grid(2, 12, 1.0, 1.0, params0)


@pytest.fixture(scope="module")
def acc_constants(acc_dom):
    params0, dom = acc_dom
    s_d, s_min, s_ab, pair_min = nf.compute_S_coupled(dom, params0, seed=0)
    return s_d, s_min, s_ab, pair_min


@pytest.fixture(scope="module")
def acc_weights(acc_dom, acc_constants):
    """lambda = mu with the combined weight at 1e-3 of the discrete Lambda_1."""
    params0, dom = acc_dom
    s_d = acc_constants[0]
    lam1 = nf.lambda1(params0, s_d, dom.volume)
    sigma = 1e-3 * lam1
    lam = (sigma / 2.0) ** ((params0.p - params0.q) / params0.p)
    return params0.with_weights(lam, lam), sigma, lam1


@pytest.fixture(scope="module")
def acc_solutions(acc_dom, acc_constants, acc_weights):
    _, dom = acc_dom
    s_d, _, s_ab, pair_min = acc_constants
    params, _, _ = acc_weights
    limits = nf.thresholds(params, dom.volume, s_d, s_ab)
    with mock.patch.object(solver, "BRANCH_MAX_ITER", 3000):
        return nf.solve_two(params, dom, 7, constants=limits, s_ab_minimizer=pair_min)


def test_criterion_1_gradient_consistency(acc_dom, capsys):
    """first_variation vs central differences at 20 random pairs/directions."""
    params0, dom = acc_dom
    params = params0.with_weights(0.7, 0.4)
    rng = np.random.default_rng(ACC_SEED)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        pair = random_pair(dom, rng)
        direction = random_pair(dom, rng)

        def energy_at(eps):
            shifted = nf.FieldPair(
                nf.Field(pair.u.values + eps * direction.u.values),
                nf.Field(pair.v.values + eps * direction.v.values),
            )
            return energy(params, dom, shifted)

        h = 1e-5
        fd = (energy_at(h) - energy_at(-h)) / (2 * h)
        fv = first_variation(params, dom, pair, direction)
        worst = max(worst, abs(fv - fd) / max(1.0, abs(fv)))
    elapsed = time.time() - t0
    report(capsys, "criterion 1 (gradient consistency)",
           worst <= 1e-6 and elapsed < 60.0,
           f"worst rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_fibering_suite(acc_dom, capsys):
    """200 random pairs in the two-root regime: root structure and identities."""
    params0, dom = acc_dom
    base = params0.with_weights(1.0, 1.0)
    rng = np.random.default_rng(ACC_SEED + 1)
    t0 = time.time()
    worst_root = worst_28 = worst_forms = 0.0
    for _ in range(200):
        pair = random_pair(dom, rng)
        params = balanced_params(base, dom, pair, fill=0.5)
        triple = nf.reduce_pair(params, dom, pair)
        rep = nf.project(params, dom, pair)
        assert rep.outcome == "two_roots"
        assert 0 < rep.t1 < rep.t_max < rep.t2
        assert nf.phi_second(triple, params, rep.t1) > 0 > nf.phi_second(triple, params, rep.t2)
        for root in (rep.t1, rep.t2):
            scale = (
                root ** (params.p - 1) * triple.P
                + root ** (params.q - 1) * triple.B
                + root ** (params.ab - 1) * triple.D
            )
            worst_root = max(worst_root, abs(nf.phi_prime(triple, params, root)) / scale)
            second_scale = triple.P + triple.B + triple.D
            resid = abs(
                root ** (params.ab - 1) * psi_prime(triple, params, root)
                - nf.phi_second(triple, params, root)
            )
            worst_28 = max(worst_28, resid / second_scale)
            exprs = phi_second_expressions(
                nf.reduce_pair(params, dom, scale_pair(pair, root)), params
            )
            spread = max(exprs) - min(exprs)
            worst_forms = max(worst_forms, spread / second_scale)
    elapsed = time.time() - t0
    ok = worst_root <= 1e-10 and worst_28 <= 1e-10 and worst_forms <= 1e-10 and elapsed < 60.0
    report(capsys, "criterion 2 (fibering suite)", ok,
           f"|phi'| {worst_root:.2e}, eq-2.8 {worst_28:.2e}, forms {worst_forms:.2e}, {elapsed:.1f}s")


def test_criterion_3_ratio_identity(acc_dom, acc_constants, capsys):
    """S_ab_d / S_d against the closed-form factor for two exponent pairs."""
    params0, dom = acc_dom
    t0 = time.time()
    s_d, _, s_ab, _ = acc_constants
    err_sym = nf.ratio_check(s_d, s_ab, params0)
    skew = nf.ModelParams(n=2, p=2.0, s=0.4, q=1.8, alpha=2.0, beta=4.0 / 3.0)
    s_d2, _, s_ab2, _ = nf.compute_S_coupled(dom, skew, seed=0)
    err_skew = nf.ratio_check(s_d2, s_ab2, skew)
    elapsed = time.time() - t0
    ok = err_sym <= 1e-3 and err_skew <= 1e-3 and elapsed < 600.0
    report(capsys, "criterion 3 (ratio identity)", ok,
           f"(5/3,5/3): {err_sym:.2e}, (2,4/3): {err_skew:.2e}, factor {nf.ratio_predicted(skew):.6f}, {elapsed:.1f}s")


def test_criterion_4_two_solution_run(acc_dom, acc_constants, acc_weights, acc_solutions, capsys):
    params, sigma, lam1 = acc_weights
    _, dom = acc_dom
    s_d, _, s_ab, _ = acc_constants
    plus, minus = acc_solutions
    d0 = nf.d0_bound(params, s_d, dom.volume, params.lam, params.mu)
    c_inf = nf.c_infty(params, s_ab, nf.c0(params, s_d, dom.volume), params.lam, params.mu)
    checks = plus.checks
    chain = plus.energy < 0 < d0.value <= minus.energy < c_inf
    ok = (
        chain
        and d0.smallness_ok
        and checks["distinct"]
        and checks["non_semitrivial_plus"]
        and checks["non_semitrivial_minus"]
        and checks["classified_plus"]
        and checks["classified_minus"]
    )
    report(capsys, "criterion 4 (two-solution run)", ok,
           f"J+ {plus.energy:.3e} < 0 < d0 {d0.value:.4f} <= J- {minus.energy:.4f} < c_inf {c_inf:.4f}; "
           f"distance {checks['pair_distance']:.3f}")


def test_criterion_5_energy_floor(acc_dom, acc_constants, acc_weights, acc_solutions, capsys):
    params, sigma, _ = acc_weights
    _, dom = acc_dom
    s_d = acc_constants[0]
    plus, minus = acc_solutions
    floor = -nf.c0(params, s_d, dom.volume) * sigma
    margin_plus = plus.energy - floor
    margin_minus = minus.energy - floor
    ok = margin_plus >= 0 and margin_minus >= 0
    report(capsys, "criterion 5 (energy floor)", ok,
           f"floor {floor:.3e}, margins +{margin_plus:.3e} / +{margin_minus:.3e}")


def test_criterion_6_xi_prime_oracle(acc_dom, capsys):
    """Implicit-map derivative vs re-projection central differences."""
    params0, dom = acc_dom
    base = params0.with_weights(1.0, 1.0)
    rng = np.random.default_rng(ACC_SEED + 2)
    worst = 0.0
    for k in range(10):
        pair = random_pair(dom, rng)
        params = balanced_params(base, dom, pair, fill=0.4)
        rep = nf.project(params, dom, pair)
        root = rep.t2 if k % 2 else rep.t1
        z = scale_pair(pair, root)
        amp = 0.01 * max(np.max(np.abs(z.u.values)), np.max(np.abs(z.v.values)))
        omega = nf.FieldPair(
            nf.Field(amp * rng.standard_normal(dom.n_interior)),
            nf.Field(amp * rng.standard_normal(dom.n_interior)),
        )
        value = xi_prime(params, dom, z, omega)

        def root_of(eps):
            shifted = nf.FieldPair(
                nf.Field(z.u.values - eps * omega.u.values),
                nf.Field(z.v.values - eps * omega.v.values),
            )
            r = nf.project(params, dom, shifted)
            return r.t2 if k % 2 else r.t1

        e = 1e-4
        fd = (root_of(e) - root_of(-e)) / (2 * e)
        worst = max(worst, abs(value - fd) / max(abs(fd), 1e-12))
    report(capsys, "criterion 6 (xi'(0) oracle)", worst <= 1e-4,
           f"worst rel err {worst:.3e} over 10 states")


def test_criterion_7_bubble_scans(acc_dom, acc_constants, capsys):
    params0, dom = acc_dom
    s_d, _, s_ab, _ = acc_constants
    t0 = time.time()
    delta, theta = dom.box_length / 4.0, 2.0
    eps_list = [delta / 4, delta / 8, delta / 16, delta / 32]

    # (a) decay envelope and halving ratio of the model profile
    decay = decay_check(params0, np.geomspace(2.0, 500.0, 60), theta)
    ok_a = decay.halving_ok and decay.theta_min is not None and decay.c1_hat <= decay.c2_hat

    # (b) trend exponents from the resolved (quadrature) scan
    scan = nf.norm_estimate_scan(dom, params0, delta, theta, eps_list, s_ref=s_d, method="quadrature")
    ok_b = (
        scan.excess_slope is not None
        and abs(scan.excess_slope - 1.2) <= 0.3 * 1.2
        and scan.deficit_slope is not None
        and abs(scan.deficit_slope - 2.0) <= 0.3 * 2.0
    )

    # (c, d) ray maxima of the weighted bubble pair on the lattice; the
    # weight scan stays inside both smallness windows (sigma < (q/p)^10 La_1),
    # and at fixed grid the concave gain must beat the bubble's lattice
    # excess, so the honest demonstration sits near the window's upper end
    lam1 = nf.lambda1(params0, s_d, dom.volume)
    lam_cap = ((0.9 ** 10) * lam1 / 2.0) ** 0.1
    lam_scan = [6.0, 6.2]
    assert all(lam < lam_cap for lam in lam_scan)
    rows_by_lam = {
        lam: nf.sup_energy_scan(dom, params0, delta, theta, eps_list,
                                nf.thresholds(params0.with_weights(lam, lam), dom.volume, s_d, s_ab))
        for lam in lam_scan
    }
    worst_c = max(
        abs(r.t_star - t_star_by_search(dom, params0, delta, theta, r.eps)) / r.t_star
        for rows in rows_by_lam.values()
        for r in rows
    )
    ok_c = worst_c <= 1e-6
    smallest = min(lam_scan)
    ok_d = any(r.below_c_infty for r in rows_by_lam[smallest])

    elapsed = time.time() - t0
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 600.0
    report(capsys, "criterion 7 (bubble scans)", ok,
           f"halving theta {decay.theta_min:.3f}; slopes {scan.excess_slope:.3f}/{scan.deficit_slope:.3f} "
           f"(predicted 1.2/2.0); t* err {worst_c:.1e}; sup<c_inf at lam={smallest}; {elapsed:.0f}s")


def test_criterion_8_scalar_identities(acc_dom, capsys):
    params0, dom = acc_dom
    params = params0.with_weights(0.7, 0.4)
    u1, e1 = nf.solve_scalar_sublinear(params, dom, params.lam)
    w, _ = nf.solve_scalar_sublinear(params, dom, params.mu)
    p, q = params.p, params.q
    sem = nf.seminorm_p(dom, u1) ** p
    resid = abs(e1 + (p - q) / (p * q) * sem) / sem
    dev = nf.semitrivial_tmax_check(params, dom, u1, w)
    predicted = ((params.ab - q) / (params.ab - p)) ** (1.0 / (p - q))
    ok = resid <= 1e-8 and dev <= 1e-8 and predicted > 1.0
    report(capsys, "criterion 8 (scalar identities)", ok,
           f"energy identity {resid:.2e}, t_max deviation {dev:.2e}, predicted {predicted:.6f}")


def test_criterion_9_curve_shapes(acc_dom, tmp_path, capsys):
    """Emitted curves: Psi unimodal with argmax at t_max, phi' changes sign twice."""
    config = {
        "params": {"n": 2, "p": 2.0, "s": 0.4, "q": 1.8,
                   "alpha": 5 / 3, "beta": 5 / 3, "lambda": 3.56, "mu": 3.56},
        "grid": {"n": 2, "m": 12, "box_length": 1.0, "collar_factor": 1.0},
        "seeds": [ACC_SEED],
        "curves": {"seeded": True, "samples": 2500},
    }
    cfg = tmp_path / "curves.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli_main(["curves", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    lines = (out / "curves.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    t = data[:, header.index("t")]
    phi_prime = data[:, header.index("phi_prime")]
    psi = data[:, header.index("psi")]
    meta = json.loads((out / "curves.meta.json").read_text())
    k = int(np.argmax(psi))
    unimodal = np.all(np.diff(psi[: k + 1]) > 0) and np.all(np.diff(psi[k:]) < 0)
    in_step = t[max(k - 1, 0)] <= meta["t_max"] <= t[min(k + 1, len(t) - 1)]
    flips = int(np.count_nonzero(np.diff(np.sign(phi_prime))))
    ok = unimodal and in_step and flips == 2
    report(capsys, "criterion 9 (curve shapes)", ok,
           f"Psi unimodal {unimodal}, argmax within one step {in_step}, phi' sign changes {flips}")


def test_criterion_10_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "BRANCH_STARTS", 2)
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 500)
    config = {
        "params": {"n": 2, "p": 2.0, "s": 0.4, "q": 1.8,
                   "alpha": 5 / 3, "beta": 5 / 3, "lambda": 3.56, "mu": 3.56},
        "grid": {"n": 2, "m": 6, "box_length": 1.0, "collar_factor": 1.0},
        "seeds": [11],
        "bubble_scan": {"delta": 0.25, "theta": 2.0, "eps_list": [0.0625, 0.03125],
                        "lambda": 6.0, "mu": 6.0, "method": "lattice"},
        "curves": {"seeded": True, "samples": 500},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    identical = True
    for command, artifact in (
        ("constants", "constants.json"),
        ("solve", "solution_minus.json"),
        ("bubble-scan", "bubble_scan.csv"),
        ("curves", "curves.csv"),
    ):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            assert cli_main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            outs.append((out / artifact).read_bytes())
        if outs[0] != outs[1]:
            identical = False
    report(capsys, "criterion 10 (determinism)", identical,
           "byte-identical reruns for constants, solve, bubble-scan, curves")
