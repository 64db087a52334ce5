import numpy as np
import pytest

import nehari_frac as nf
from nehari_frac import solver
from nehari_frac.constants import BUDGET, CONVERGED_STOPS
from nehari_frac.errors import BranchLostError, ConvergenceError, SupportError
from nehari_frac.fibering import NMINUS, NPLUS
from nehari_frac.solver import pair_distance

from conftest import DESK, random_pair

CRIT = nf.ModelParams(**DESK)


@pytest.fixture(scope="module")
def setup12():
    params0 = nf.ModelParams(**DESK)
    dom = nf.build_grid(2, 12, 1.0, 1.0, params0)
    s_d, _, s_ab, _ = nf.compute_S_coupled(dom, params0, seed=0, restarts=4)
    lam1 = nf.lambda1(params0, s_d, dom.volume)
    sigma = 1e-3 * lam1
    lam = (sigma / 2.0) ** ((params0.p - params0.q) / params0.p)
    return params0.with_weights(lam, lam), dom, s_d, s_ab


def test_minimize_on_branch_nplus(setup12):
    params, dom, _, _ = setup12
    rng = np.random.default_rng(1)
    init = random_pair(dom, rng, positive=True)
    rep = nf.minimize_on_branch(params, dom, NPLUS, init, nf.SolveOptions(seed=1, max_iter=1500))
    assert rep.branch == NPLUS
    assert rep.energy < 0                      # minimum branch level is negative
    assert rep.classification == NPLUS
    assert np.isfinite(rep.iterate_norm_max)
    constraint = nf.nehari_constraint(params, dom, rep.pair)
    assert abs(constraint) <= 1e-8 * nf.pair_norm(dom, rep.pair) ** params.p


def test_minimize_on_branch_nminus_above_d0(setup12):
    params, dom, s_d, _ = setup12
    rng = np.random.default_rng(2)
    init = random_pair(dom, rng, positive=True)
    rep = nf.minimize_on_branch(params, dom, NMINUS, init, nf.SolveOptions(seed=2, max_iter=1500))
    assert rep.branch == NMINUS
    assert rep.classification == NMINUS
    d0 = nf.d0_bound(params, s_d, dom.volume, params.lam, params.mu)
    assert d0.smallness_ok
    assert rep.energy >= d0.value > 0


def test_minimize_on_branch_reports_budget_stop(setup12):
    params, dom, _, _ = setup12
    init = random_pair(dom, np.random.default_rng(5), positive=True)
    rep = nf.minimize_on_branch(params, dom, NPLUS, init, nf.SolveOptions(max_iter=1))
    assert rep.stop_reason == BUDGET
    assert rep.converged is False
    assert rep.iterations == 1
    d = rep.to_dict()
    assert d["stop_reason"] == BUDGET and d["converged"] is False


def test_minimize_on_branch_converged_matches_stop_reason(setup12):
    params, dom, _, _ = setup12
    init = random_pair(dom, np.random.default_rng(6), positive=True)
    rep = nf.minimize_on_branch(params, dom, NMINUS, init, nf.SolveOptions(max_iter=1500))
    assert rep.converged == (rep.stop_reason in CONVERGED_STOPS)
    assert np.all(rep.pair.u.values >= 0) and np.all(rep.pair.v.values >= 0)


def test_starts_skip_only_unfitting_bubbles(setup12, monkeypatch):
    params, dom, _, _ = setup12
    opts = nf.SolveOptions(n_starts=2)
    with_bubble = solver._starts_for_branch(params, dom, NMINUS, opts)

    def unfitting(*args, **kwargs):
        raise SupportError("support ball does not fit")

    monkeypatch.setattr(solver, "bubble_field", unfitting)
    assert len(solver._starts_for_branch(params, dom, NMINUS, opts)) == len(with_bubble) - 1

    def broken(*args, **kwargs):
        raise RuntimeError("bubble construction bug")

    monkeypatch.setattr(solver, "bubble_field", broken)
    with pytest.raises(RuntimeError, match="bubble construction bug"):
        solver._starts_for_branch(params, dom, NMINUS, opts)


def test_minimize_on_branch_rejects_zero_weights(setup12):
    _, dom, _, _ = setup12
    init = random_pair(dom, np.random.default_rng(3), positive=True)
    with pytest.raises(ValueError, match="parameters must be positive"):
        nf.minimize_on_branch(CRIT, dom, NPLUS, init, nf.SolveOptions())


def test_branch_lost_at_huge_weights(setup12):
    # far outside the two-root regime the upper root disappears on some rays
    _, dom, s_d, _ = setup12
    params_big = CRIT.with_weights(1e9, 1e9)
    init = random_pair(dom, np.random.default_rng(4), positive=True)
    with pytest.raises(BranchLostError, match="left the two-root regime"):
        nf.minimize_on_branch(params_big, dom, NMINUS, init, nf.SolveOptions())


def test_solve_two_full_chain(setup12):
    params, dom, s_d, s_ab = setup12
    opts = nf.SolveOptions(seed=7, n_starts=3, max_iter=1500)
    plus, minus = nf.solve_two(params, dom, opts, s_d=s_d, s_ab_d=s_ab)
    checks = plus.checks
    assert checks["energy_plus_negative"] and checks["energy_minus_positive"]
    assert checks["distinct"] and checks["pair_distance"] > 1e-6
    assert checks["non_semitrivial_plus"] and checks["non_semitrivial_minus"]
    assert checks["classified_plus"] and checks["classified_minus"]
    assert checks["d0_le_minus"] and checks["minus_below_c_infty"]
    assert checks["floor_plus_ok"] and checks["floor_minus_ok"]
    assert plus.field_hash() != minus.field_hash()


def test_solve_two_requires_positive_weights(setup12):
    _, dom, _, _ = setup12
    with pytest.raises(ValueError, match="parameters must be positive"):
        nf.solve_two(CRIT, dom, nf.SolveOptions())


def test_solve_two_swap_symmetry():
    """With alpha = beta, swapping (lam, mu) swaps the roles of u and v."""
    params0 = nf.ModelParams(**DESK)
    dom = nf.build_grid(2, 8, 1.0, 1.0, params0)
    a = params0.with_weights(2.0, 4.0)
    b = params0.with_weights(4.0, 2.0)
    opts = nf.SolveOptions(seed=5, n_starts=3, max_iter=1200)
    plus_a, minus_a = nf.solve_two(a, dom, opts)
    plus_b, minus_b = nf.solve_two(b, dom, opts)
    for ra, rb in ((plus_a, plus_b), (minus_a, minus_b)):
        assert ra.energy == pytest.approx(rb.energy, rel=1e-5)
        swapped = nf.FieldPair(rb.pair.v, rb.pair.u)
        assert pair_distance(dom, ra.pair, swapped) <= 1e-4


def test_cplus_bounds_projected_probes(setup12):
    """The reported minimum-branch level undercuts 50 projected probes."""
    params, dom, _, _ = setup12
    opts = nf.SolveOptions(seed=11, n_starts=3, max_iter=1500)
    plus, minus = nf.solve_two(params, dom, opts)
    rng = np.random.default_rng(17)
    for _ in range(50):
        probe = random_pair(dom, rng, positive=True)
        rep = nf.project(params, dom, probe)
        assert plus.energy <= nf.phi(rep.triple, params, rep.t1) + 1e-12
        assert minus.energy <= nf.phi(rep.triple, params, rep.t2) + 1e-12


def test_energy_floor_across_starts(setup12):
    """Every converged critical point obeys the discrete energy floor."""
    params, dom, s_d, _ = setup12
    floor = -nf.c0(params, s_d, dom.volume) * (
        params.lam ** (params.p / (params.p - params.q)) + params.mu ** (params.p / (params.p - params.q))
    )
    rng = np.random.default_rng(23)
    for branch in (NPLUS, NMINUS):
        for k in range(3):
            init = random_pair(dom, rng, positive=True)
            rep = nf.minimize_on_branch(params, dom, branch, init, nf.SolveOptions(seed=k, max_iter=800))
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
    """p > 2 runs the Barzilai-Borwein descent to 1e-12 relative gradient."""
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


def test_scalar_newton_cg_m28(params, monkeypatch):
    """p = 2 polishes with Newton steps solved by conjugate gradients on the
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


def test_semitrivial_tmax_rejects_nonstationary(params, dom12):
    rng = np.random.default_rng(31)
    u = nf.Field(np.abs(rng.standard_normal(dom12.n_interior)))
    w = nf.Field(np.abs(rng.standard_normal(dom12.n_interior)))
    with pytest.raises(ConvergenceError, match="not stationary"):
        nf.semitrivial_tmax_check(params, dom12, u, w)
