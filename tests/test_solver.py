import json
from pathlib import Path

import numpy as np
import pytest

import nehari_frac as nf
from nehari_frac import fibering, solver
from nehari_frac.cli import main as cli_main
from nehari_frac.constants import BUDGET, CONVERGED_STOPS, FLAT, LINE_SEARCH_EXHAUSTED
from nehari_frac.constants import bump_field
from nehari_frac.energy import ray_triple, triple_gradients
from nehari_frac.errors import BranchLostError, ConvergenceError, SupportError, ZeroPairError
from nehari_frac.fibering import NMINUS, NPLUS
from nehari_frac.solver import pair_distance

from conftest import (
    DESK, balanced_params, bisection_branch_root, branch_round, nehari_constraint, random_pair, record_plap_calls,
)

CRIT = nf.ModelParams(**DESK)


def one_start(pair):
    """The start list of minimize_on_branch from one pair: its raw (2N,) vector."""
    return [np.concatenate([pair.u.values, pair.v.values])]


@pytest.fixture(scope="module")
def setup12():
    params0 = nf.ModelParams(**DESK)
    dom = nf.build_grid(2, 12, 1.0, 1.0, params0)
    s_d, _, s_ab, _ = nf.compute_S_coupled(dom, params0, seed=0, restarts=4)
    lam1 = nf.lambda1(params0, s_d, dom.volume)
    sigma = 1e-3 * lam1
    lam = (sigma / 2.0) ** ((params0.p - params0.q) / params0.p)
    return params0.with_weights(lam, lam), dom, s_d, s_ab


def test_minimize_on_branch_nplus(setup12, monkeypatch):
    params, dom, _, _ = setup12
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 1500)
    rng = np.random.default_rng(1)
    init = random_pair(dom, rng, positive=True)
    rep = nf.minimize_on_branch(params, dom, NPLUS, one_start(init))
    assert rep.branch == NPLUS
    assert rep.energy < 0                      # minimum branch level is negative
    assert rep.classification == NPLUS
    assert np.isfinite(rep.iterate_norm_max)
    constraint = nehari_constraint(params, dom, rep.pair)
    assert abs(constraint) <= 1e-8 * nf.pair_norm(dom, rep.pair) ** params.p


def test_minimize_on_branch_nminus_above_d0(setup12, monkeypatch):
    params, dom, s_d, _ = setup12
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 1500)
    rng = np.random.default_rng(2)
    init = random_pair(dom, rng, positive=True)
    rep = nf.minimize_on_branch(params, dom, NMINUS, one_start(init))
    assert rep.branch == NMINUS
    assert rep.classification == NMINUS
    d0 = nf.d0_bound(params, s_d, dom.volume, params.lam, params.mu)
    assert d0.smallness_ok
    assert rep.energy >= d0.value > 0


def test_lockstep_branch_starts_match_single_start_runs(setup12, monkeypatch):
    """minimize_on_branch descends from all starts of a branch in lockstep,
    with one stacked kernel pass per round; each start's Descent equals, bit
    for bit, the Descent from that start alone, and the reported start's
    report equals the report from it alone.  The zero pair, inserted as
    start 1, cannot be projected."""
    params, dom, _, _ = setup12
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 50)
    starts = solver._starts_for_branch(params, dom, NPLUS, 0)
    starts.insert(1, np.zeros(2 * dom.n_interior))
    made = []
    descend = solver.descend
    monkeypatch.setattr(solver, "descend", lambda *args, **kwargs: made.append(descend(*args, **kwargs)) or made[-1])
    report = nf.minimize_on_branch(params, dom, NPLUS, starts)
    runs = made[-1]
    assert runs[1] is None
    with pytest.raises(BranchLostError):
        nf.minimize_on_branch(params, dom, NPLUS, [starts[1]])
    for k, run in enumerate(runs):
        if run is not None:
            nf.minimize_on_branch(params, dom, NPLUS, [starts[k]])
            [alone] = made[-1]
            assert run.x.tobytes() == alone.x.tobytes() and run.grad.tobytes() == alone.grad.tobytes()
            assert (run.value, run.stop_reason, run.iterations) == (alone.value, alone.stop_reason, alone.iterations)
    k = report.seed_index
    alone = nf.minimize_on_branch(params, dom, NPLUS, [starts[k]])
    assert report.to_dict() == {**alone.to_dict(), "seed_index": k}  # field hashes included
    assert [run.stop_reason for run in runs if run is not None] == [FLAT, LINE_SEARCH_EXHAUSTED] + [BUDGET] * 2


def test_minimize_on_branch_reports_budget_stop(setup12, monkeypatch):
    params, dom, _, _ = setup12
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 1)
    init = random_pair(dom, np.random.default_rng(5), positive=True)
    rep = nf.minimize_on_branch(params, dom, NPLUS, one_start(init))
    assert rep.stop_reason == BUDGET
    assert rep.converged is False
    assert rep.iterations == 1
    d = rep.to_dict()
    assert d["stop_reason"] == BUDGET and d["converged"] is False


def test_minimize_on_branch_converged_matches_stop_reason(setup12, monkeypatch):
    params, dom, _, _ = setup12
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 1500)
    init = random_pair(dom, np.random.default_rng(6), positive=True)
    rep = nf.minimize_on_branch(params, dom, NMINUS, one_start(init))
    assert rep.converged == (rep.stop_reason in CONVERGED_STOPS)
    assert np.all(rep.pair.u.values >= 0) and np.all(rep.pair.v.values >= 0)


@pytest.mark.parametrize("shape", ["box", "ball"])
def test_minus_starts_carry_the_bubble(shape, monkeypatch):
    """The bubble start's support radius BUBBLE_THETA * BUBBLE_DELTA_FRAC * L
    is L/2 exactly, so it fits every box and ball: the minimum-branch starts
    always carry the weighted bubble, and an error building it propagates."""
    params = nf.ModelParams(**DESK, lam=1.0, mu=1.0)
    monkeypatch.setattr(solver, "BRANCH_STARTS", 2)
    p = params.p
    for length in (0.1, 1.0 / 3.0, 1.0, 2.7, 1e3):
        dom = nf.build_grid(2, 6, length, 1.0, params, shape=shape)
        starts = solver._starts_for_branch(params, dom, NMINUS, 0)
        delta = solver.BUBBLE_DELTA_FRAC * length
        ub = nf.bubble_field(dom, params, solver.BUBBLE_EPS_FRAC * delta, delta, solver.BUBBLE_THETA).values
        assert ub.any()
        assert len(starts) == 1 + solver.BRANCH_STARTS
        assert np.array_equal(starts[0][:dom.n_interior], params.alpha ** (1.0 / p) * ub)
        assert np.array_equal(starts[0][dom.n_interior:], params.beta ** (1.0 / p) * ub)

    def unfitting(*args, **kwargs):
        raise SupportError("support ball does not fit")

    monkeypatch.setattr(solver, "bubble_field", unfitting)
    with pytest.raises(SupportError, match="does not fit"):
        solver._starts_for_branch(params, dom, NMINUS, 0)


def test_minimize_on_branch_rejects_zero_weights(setup12):
    _, dom, _, _ = setup12
    init = random_pair(dom, np.random.default_rng(3), positive=True)
    with pytest.raises(ValueError, match="parameters must be positive"):
        nf.minimize_on_branch(CRIT, dom, NPLUS, one_start(init))


def test_branch_lost_at_huge_weights(setup12):
    # far outside the two-root regime the upper root disappears on some rays
    _, dom, s_d, _ = setup12
    params_big = CRIT.with_weights(1e9, 1e9)
    init = random_pair(dom, np.random.default_rng(4), positive=True)
    with pytest.raises(BranchLostError, match="left the two-root regime"):
        nf.minimize_on_branch(params_big, dom, NMINUS, one_start(init))


def test_one_root_search_per_branch_trial(setup12, monkeypatch):
    """A branch trial searches only for the root it projects onto."""
    params, dom, _, _ = setup12
    calls = []
    search = fibering._root_newton

    def counted(*args, **kwargs):
        calls.append(args[2:])
        return search(*args, **kwargs)

    monkeypatch.setattr(fibering, "_root_newton", counted)
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 0)  # the start alone
    init = random_pair(dom, np.random.default_rng(8), positive=True)
    for branch in (NPLUS, NMINUS):
        calls.clear()
        rep = nf.minimize_on_branch(params, dom, branch, one_start(init))
        assert rep.iterations == 0
        assert len(calls) == 1
        (lo, hi), = calls
        t_max = nf.t_max(nf.reduce_pair(params, dom, init), params)
        assert (hi if branch == NPLUS else lo) == pytest.approx(t_max, rel=1e-12)


ROUND_PARAMS = {
    "p2": (nf.ModelParams(**DESK), 2, 8),
    "p3": (nf.ModelParams(n=2, p=3.0, s=0.1, q=2.5, alpha=30 / 17, beta=30 / 17), 2, 8),
    "p1.5": (nf.ModelParams(n=1, p=1.5, s=0.3, q=1.2, alpha=2.0, beta=2.0), 1, 9),
}


@pytest.mark.parametrize("branch", [NPLUS, NMINUS])
@pytest.mark.parametrize("case", list(ROUND_PARAMS))
def test_branch_round_matches_per_row_oracles(case, branch):
    """One evaluation of a round's stack equals, row by row, the single-state
    reduction at the bisection oracle's root t: the point t |a|, its energy,
    its gradient (from a kernel pass at t |a|) and its P, each to 1e-13
    relative to the size of its terms.  The rows: a pair whose D the weights
    put at half Psi(t_max), that pair times 3 with random signs, the zero
    state, the bump pair (above the threshold, no root) and a pair with a
    zero component (a root on the minimum branch only).  The evaluations
    hold their own arrays, not views of the round's stack."""
    base, dim, m = ROUND_PARAMS[case]
    dom = nf.build_grid(dim, m, 1.0, 1.0, base)
    n = dom.n_interior
    rng = np.random.default_rng(0)
    pair = random_pair(dom, rng, positive=True)
    params = balanced_params(base, dom, pair, fill=0.5)
    p, q, ab = params.p, params.q, params.ab
    bump = bump_field(dom)
    a0 = np.concatenate([pair.u.values, pair.v.values])
    raws = [
        a0,
        3.0 * np.where(rng.random(2 * n) < 0.5, -1.0, 1.0) * a0,
        np.zeros(2 * n),
        np.concatenate([bump, bump]),
        np.concatenate([pair.u.values, np.zeros(n)]),
    ]
    found = []
    for raw, evaluation in zip(raws, branch_round(params, dom, branch)(raws)):
        a = np.abs(raw)
        t = bisection_branch_root(ray_triple(params, dom, a[:n], a[n:]), params, branch)
        found.append(t is not None)
        assert (evaluation is None) == (t is None)
        if t is None:
            continue
        x, value, grad, P = evaluation
        assert x.base is None and grad.base is None
        xo = t * a
        ray = ray_triple(params, dom, xo[:n], xo[n:])
        dP, dB, dD = triple_gradients(params, dom, xo[:n], xo[n:])
        g = np.concatenate(nf.energy.gradient_arrays(params, dom, xo[:n], xo[n:]))
        assert np.max(np.abs(x - xo)) <= 1e-13 * np.max(xo)
        assert abs(value - nf.phi(ray, params, 1.0)) <= 1e-13 * (ray.P / p + ray.B / q + ray.D / ab)
        scale = np.max(np.abs(dP)) / p + np.max(np.abs(dB)) / q + np.max(np.abs(dD)) / ab
        assert np.max(np.abs(grad - g)) <= 1e-13 * scale
        assert abs(P - ray.P) <= 1e-13 * ray.P
    assert found == [True, True, False, False, branch == NPLUS]


def test_solve_two_full_chain(setup12, monkeypatch):
    params, dom, s_d, s_ab = setup12
    monkeypatch.setattr(solver, "BRANCH_STARTS", 3)
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 1500)
    limits = nf.thresholds(params, dom.volume, s_d, s_ab)
    plus, minus = nf.solve_two(params, dom, 7, constants=limits)
    checks = plus.checks
    # the checks read the thresholds record; the floor is -C_0 sigma
    sigma = params.lam ** (params.p / (params.p - params.q)) + params.mu ** (params.p / (params.p - params.q))
    assert checks["energy_floor"] == -limits.C0 * sigma
    assert checks["c_infty"] == limits.c_infty
    assert checks["d0_bound"] == limits.d0_bound
    assert checks["d0_smallness_ok"] == limits.d0_smallness_ok
    assert checks["energy_plus_negative"] and checks["energy_minus_positive"]
    assert checks["distinct"] and checks["pair_distance"] > 1e-6
    assert checks["non_semitrivial_plus"] and checks["non_semitrivial_minus"]
    assert checks["classified_plus"] and checks["classified_minus"]
    assert checks["d0_le_minus"] and checks["minus_below_c_infty"]
    assert checks["floor_plus_ok"] and checks["floor_minus_ok"]
    assert plus.field_hash() != minus.field_hash()


def test_p3_plus_random_starts_converge_in_few_iterations(monkeypatch):
    """The desk problem at p = 3, s = 0.1, q = 2.5, alpha = beta = 30/17, m = 12:
    every N+ start of solve_two finishes within 60 iterations (20-22 measured).
    On this nonconvex branch the random starts see dx.dg <= 0 at almost every
    step; with the BB step frozen there they took 105-139."""
    params = nf.ModelParams(**{**DESK, "p": 3.0, "s": 0.1, "q": 2.5, "alpha": 30 / 17, "beta": 30 / 17,
                               "lam": 3.56, "mu": 3.56})
    dom = nf.build_grid(2, 12, 1.0, 1.0, params)
    real, branch_runs = solver.descend, []

    def recording(*args, **kwargs):
        branch_runs.append(real(*args, **kwargs))
        return branch_runs[-1]

    monkeypatch.setattr(solver, "descend", recording)
    plus, _ = solver.solve_two(params, dom, 7)
    nplus = branch_runs[0]
    assert len(nplus) == 4 and all(run is not None for run in nplus)
    assert max(run.iterations for run in nplus) <= 60, [run.iterations for run in nplus]
    assert all(abs(run.value - plus.energy) <= 1e-9 * abs(plus.energy) for run in nplus)


def test_solve_two_requires_positive_weights(setup12):
    _, dom, _, _ = setup12
    with pytest.raises(ValueError, match="parameters must be positive"):
        nf.solve_two(CRIT, dom)


def test_solve_two_rejects_thresholds_of_other_weights(setup12):
    params, dom, s_d, s_ab = setup12
    for other, volume in ((params.with_weights(params.lam, 2 * params.mu), dom.volume), (params, 2 * dom.volume)):
        with pytest.raises(ValueError, match="other weights or on another domain"):
            nf.solve_two(params, dom, constants=nf.thresholds(other, volume, s_d, s_ab))


@pytest.mark.parametrize("lead, expected", [(5e-14, 0), (2e-13, 2)])
def test_solve_two_reports_the_first_start_of_a_tied_minimum(setup12, monkeypatch, lead, expected):
    """Starts whose energies lie within constants.TIE_RTOL (relative) of the
    lowest reached the same minimum, and the first of them is reported:
    start 0 is lead above the lowest (start 2), start 1 far above, start 3
    1e-14 above."""
    params, dom, _, _ = setup12
    descend = solver.descend

    def shifted(*args, **kwargs):
        runs = descend(*args, **kwargs)
        low = runs[2].value
        return [run._replace(value=low + rel * abs(low)) for run, rel in zip(runs, (lead, 1e-12, 0.0, 1e-14))]

    monkeypatch.setattr(solver, "descend", shifted)
    monkeypatch.setattr(solver, "BRANCH_STARTS", 3)
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 5)
    plus, minus = nf.solve_two(params, dom)
    assert plus.seed_index == minus.seed_index == expected


def test_solve_two_swap_symmetry(monkeypatch):
    """With alpha = beta, swapping (lam, mu) swaps the roles of u and v."""
    params0 = nf.ModelParams(**DESK)
    dom = nf.build_grid(2, 8, 1.0, 1.0, params0)
    a = params0.with_weights(2.0, 4.0)
    b = params0.with_weights(4.0, 2.0)
    monkeypatch.setattr(solver, "BRANCH_STARTS", 3)
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 1200)
    plus_a, minus_a = nf.solve_two(a, dom, 5)
    plus_b, minus_b = nf.solve_two(b, dom, 5)
    for ra, rb in ((plus_a, plus_b), (minus_a, minus_b)):
        assert ra.energy == pytest.approx(rb.energy, rel=1e-5)
        swapped = nf.FieldPair(rb.pair.v, rb.pair.u)
        assert pair_distance(dom, ra.pair, swapped) <= 1e-4


def test_cplus_bounds_projected_probes(setup12, monkeypatch):
    """The reported minimum-branch level undercuts 50 projected probes."""
    params, dom, _, _ = setup12
    monkeypatch.setattr(solver, "BRANCH_STARTS", 3)
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 1500)
    plus, minus = nf.solve_two(params, dom, 11)
    rng = np.random.default_rng(17)
    for _ in range(50):
        probe = random_pair(dom, rng, positive=True)
        rep = nf.project(params, dom, probe)
        assert plus.energy <= nf.phi(rep.triple, params, rep.t1) + 1e-12
        assert minus.energy <= nf.phi(rep.triple, params, rep.t2) + 1e-12


def test_energy_floor_across_starts(setup12, monkeypatch):
    """Every converged critical point obeys the discrete energy floor."""
    params, dom, s_d, _ = setup12
    monkeypatch.setattr(solver, "BRANCH_MAX_ITER", 800)
    floor = -nf.c0(params, s_d, dom.volume) * (
        params.lam ** (params.p / (params.p - params.q)) + params.mu ** (params.p / (params.p - params.q))
    )
    rng = np.random.default_rng(23)
    for branch in (NPLUS, NMINUS):
        for k in range(3):
            init = random_pair(dom, rng, positive=True)
            rep = nf.minimize_on_branch(params, dom, branch, one_start(init))
            assert rep.energy >= floor


# ---------------------------------------------------------------------------
# Scalar sublinear problem
# ---------------------------------------------------------------------------

def test_scalar_solution_identities(params, dom12):
    u, energy = nf.solve_scalar_sublinear(params, dom12, params.lam)
    p, q = params.p, params.q
    sem = nf.seminorm_p(dom12, u) ** p
    qint = params.lam * dom12.h ** 2 * np.sum(np.abs(u.values) ** q)
    assert abs(sem - qint) <= 1e-10 * sem                 # Euler identity
    assert energy < 0
    assert abs(energy + (p - q) / (p * q) * sem) <= 1e-8 * sem


def _relative_gradient(params, dom, lam, u):
    """|grad| of the scalar energy over lam * cell * sum |u|^(q-1)."""
    x = u.values
    source = lam * dom.h ** dom.dim * np.abs(x) ** (params.q - 1.0)
    return float(np.linalg.norm(nf.grid.plap_gradient(dom, x) - np.sign(x) * source) / np.sum(source))


def test_scalar_solution_p3():
    """p > 2 runs the same damped Newton-CG route as p = 2."""
    params = nf.ModelParams(n=2, p=3.0, s=0.1, q=2.5, alpha=30 / 17, beta=30 / 17, lam=0.7, mu=0.4)
    dom = nf.build_grid(2, 12, 1.0, 1.0, params)
    u, energy = nf.solve_scalar_sublinear(params, dom, params.lam)
    p, q = params.p, params.q
    sem = nf.seminorm_p(dom, u) ** p
    qint = params.lam * dom.h ** 2 * np.sum(np.abs(u.values) ** q)
    assert abs(sem - qint) <= 1e-10 * sem
    # the dense-Hessian Newton polish this solve had before gave -5.0517913656283885e-08
    assert energy == pytest.approx(-5.0517913656283885e-08, rel=1e-12)
    assert _relative_gradient(params, dom, params.lam, u) <= 1e-12


def test_scalar_p3_m20_kernel_pass_budget(monkeypatch):
    """At the p3_solve parameters the scalar solve converges within 1,000
    kernel passes; the Barzilai-Borwein descent this route replaced ran out
    of its budget here after 459,488 passes."""
    params = nf.ModelParams(n=2, p=3.0, s=0.1, q=2.5, alpha=30 / 17, beta=30 / 17, lam=3.56, mu=3.56)
    dom = nf.build_grid(2, 20, 1.0, 1.0, params)
    passes = []
    plap = solver.plap_gradient

    def counted(dom, u):
        passes.append(1)
        if len(passes) > 1000:
            pytest.fail("the scalar solve needed more than 1,000 kernel passes")
        return plap(dom, u)

    monkeypatch.setattr(solver, "plap_gradient", counted)
    u, energy = nf.solve_scalar_sublinear(params, dom, params.lam)
    p, q = params.p, params.q
    # measured with this route: 68 passes, relative gradient 5.4e-16
    assert energy == pytest.approx(-0.001045698263875198, rel=1e-12)
    assert energy == pytest.approx(-(p - q) / (p * q) * nf.seminorm_p(dom, u) ** p, rel=1e-12)
    assert _relative_gradient(params, dom, params.lam, u) <= 1e-14


def test_scalar_newton_cg_m28(params, monkeypatch):
    """p = 2 takes Newton steps solved by conjugate gradients on the
    FFT kernel pass."""
    dom = nf.build_grid(2, 28, 1.0, 1.0, params)
    calls = []
    newton_cg = solver._newton_cg
    monkeypatch.setattr(solver, "_newton_cg", lambda hess, g: calls.append(1) or newton_cg(hess, g))
    u, energy = nf.solve_scalar_sublinear(params, dom, params.lam)
    assert calls
    # the dense-Hessian Newton polish gave -2.1681921192535442e-14 with a
    # relative gradient of 3.5e-12 (its line search stalled on energy
    # rounding); measured here: 8.0e-17
    assert energy == pytest.approx(-2.1681921192535442e-14, rel=1e-12)
    assert _relative_gradient(params, dom, params.lam, u) <= 1e-15


def test_scalar_scaling_law(params, dom12):
    u1, _ = nf.solve_scalar_sublinear(params, dom12, params.lam)
    c = 1.7
    u2, _ = nf.solve_scalar_sublinear(params, dom12, c * params.lam)
    factor = c ** (1.0 / (params.p - params.q))
    assert np.max(np.abs(u2.values - factor * u1.values)) <= 1e-6 * np.max(np.abs(u2.values))


def test_scalar_requires_positive_weight(params, dom12):
    with pytest.raises(ValueError):
        nf.solve_scalar_sublinear(params, dom12, 0.0)


def test_semitrivial_tmax_identity(params, dom12):
    u1, _ = nf.solve_scalar_sublinear(params, dom12, params.lam)
    w, _ = nf.solve_scalar_sublinear(params, dom12, params.mu)
    dev = nf.semitrivial_tmax_check(params, dom12, u1, w)
    assert dev <= 1e-8
    predicted = ((params.ab - params.q) / (params.ab - params.p)) ** (1.0 / (params.p - params.q))
    assert predicted > 1.0
    assert predicted == pytest.approx(2.0113571875, rel=1e-9)


def test_semitrivial_tmax_check_makes_one_stacked_pass(params, dom12, monkeypatch):
    """The two components go through plap_gradient as one stack of two rows,
    and no all-zero row is passed in their place."""
    u1, _ = nf.solve_scalar_sublinear(params, dom12, params.lam)
    w, _ = nf.solve_scalar_sublinear(params, dom12, params.mu)
    expected = nf.semitrivial_tmax_check(params, dom12, u1, w)
    calls = record_plap_calls(monkeypatch)
    assert nf.semitrivial_tmax_check(params, dom12, u1, w) == expected
    assert calls == [(2, 0)]


def test_semitrivial_tmax_rejects_ray_projected_fields(params, dom12):
    """Scaled onto its scalar ray minimum, any positive field has P = B.  The
    input test is the gradient, not that ray identity, so two random fields
    projected that way are rejected."""
    rng = np.random.default_rng(31)
    projected = []
    for weight in (params.lam, params.mu):
        x = np.abs(rng.standard_normal(dom12.n_interior))
        P = nf.seminorm_p(dom12, x) ** params.p
        B = weight * dom12.cell * float(np.sum(x ** params.q))
        y = (B / P) ** (1.0 / (params.p - params.q)) * x
        P, B = nf.seminorm_p(dom12, y) ** params.p, weight * dom12.cell * float(np.sum(y ** params.q))
        assert abs(P - B) <= 1e-12 * P
        projected.append(nf.Field(y))
    with pytest.raises(ConvergenceError, match="not stationary"):
        nf.semitrivial_tmax_check(params, dom12, *projected)


def test_semitrivial_tmax_rejects_a_zero_input(params, dom):
    """A zero input has no fibering: ZeroPairError names it, whichever
    component it is, before any quotient of its sums is formed."""
    u, _ = nf.solve_scalar_sublinear(params, dom, params.lam)
    zero = np.zeros(dom.n_interior)
    with pytest.raises(ZeroPairError, match="u1 is the zero field"):
        nf.semitrivial_tmax_check(params, dom, zero, u)
    with pytest.raises(ZeroPairError, match="w is the zero field"):
        nf.semitrivial_tmax_check(params, dom, u, nf.Field(zero))


def test_semitrivial_tmax_rejects_nonstationary(params, dom12):
    rng = np.random.default_rng(31)
    u = nf.Field(np.abs(rng.standard_normal(dom12.n_interior)))
    w = nf.Field(np.abs(rng.standard_normal(dom12.n_interior)))
    with pytest.raises(ConvergenceError, match="not stationary"):
        nf.semitrivial_tmax_check(params, dom12, u, w)


def test_branch_reports_make_one_stacked_pass_each(tmp_path, monkeypatch):
    """On the desk config at m = 20 (seed 7) solve_two descends from ten
    starts, four on the minimum branch and six on the maximum branch, and
    reports one start per branch; each report reads its residual and
    classification from one plap_gradient call on the stack (u, v)."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "desk.json").read_text())
    cfg["grid"]["m"] = 20
    path = tmp_path / "desk20.json"
    path.write_text(json.dumps(cfg))
    calls = record_plap_calls(monkeypatch)
    per_report = []
    branch_report = solver._branch_report

    def recorded(*args):
        start = len(calls)
        out = branch_report(*args)
        per_report.append(calls[start:])
        return out

    monkeypatch.setattr(solver, "_branch_report", recorded)
    assert cli_main(["solve", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert per_report == [[(2, 0)]] * 2
