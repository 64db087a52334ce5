import itertools
import math

import mpmath as mp
import numpy as np
import pytest

import nehari_frac as nf
from nehari_frac.constants import (
    BUDGET,
    FLAT,
    GRAD_TOL,
    LINE_SEARCH_EXHAUSTED,
    TIE_RTOL,
    Descent,
    StopRule,
    descend,
    descent_steps,
    first_lowest,
    random_positive_starts,
)

from nehari_frac.energy import ray_triple
from nehari_frac.grid import lr_norm

from conftest import (
    DESK, assert_same_runs, coupled_quotient, holder_bound_check, quotient_round, random_pair, rayleigh_quotient, young_bound_check,
)

mp.mp.dps = 50

CRIT = nf.ModelParams(n=2, p=2.0, s=0.4, q=1.8, alpha=5 / 3, beta=5 / 3)


def c0_via_chat(params, s_value, volume):
    """Independent route to C_0 through the Young-splitting constant."""
    p, q, s, n = params.p, params.q, params.s, params.n
    ps = params.p_star
    bracket = (p / q) * (s / n) * (1.0 / q - 1.0 / ps) ** (-1.0)
    chat = (p - q) / p * (
        bracket ** (-q / p) * volume ** ((ps - q) / ps) * s_value ** (-q / p)
    ) ** (p / (p - q))
    return (1.0 / q - 1.0 / ps) * chat


def g_min(params):
    """Closed-form minimizer and minimum of g: x0 = (a/b)^(1/p), g(x0) = the ratio factor."""
    return (params.alpha / params.beta) ** (1.0 / params.p), nf.ratio_predicted(params)


def coupling_ratio_g(params, x):
    """g(x) = x^(p b/(a+b)) + x^(-p a/(a+b)), the pair-splitting cost function
    whose closed-form minimum g_min gives."""
    p, a, b = params.p, params.alpha, params.beta
    ab = params.ab
    return x ** (p * b / ab) + x ** (-p * a / ab)


# ---------------------------------------------------------------------------
# Closed forms against arbitrary-precision evaluation
# ---------------------------------------------------------------------------

def mp_lambda1(params, S, vol):
    p, q, ab = mp.mpf(params.p), mp.mpf(params.q), mp.mpf(params.alpha) + mp.mpf(params.beta)
    S, vol = mp.mpf(S), mp.mpf(vol)
    t1 = ((p - q) / (2 * (ab - q))) ** (p / (ab - p))
    t2 = ((ab - q) / (ab - p) * vol ** ((ab - q) / ab)) ** (-p / (p - q))
    t3 = S ** (ab / (ab - p) + q / (p - q))
    return t1 * t2 * t3


def mp_c0(params, S, vol):
    p, q = mp.mpf(params.p), mp.mpf(params.q)
    n, s = mp.mpf(params.n), mp.mpf(params.s)
    ps = n * p / (n - p * s)
    S, vol = mp.mpf(S), mp.mpf(vol)
    return ((p - q) / (p * q * ps)) * (ps - q) ** (p / (p - q)) / (ps - p) ** (q / (p - q)) \
        * vol ** (p * (ps - q) / (ps * (p - q))) * S ** (-q / (p - q))


def test_lambda1_extended_precision():
    params = nf.ModelParams(n=2, p=2.0, s=0.4, q=1.8, alpha=5 / 3, beta=5 / 3)
    for S, vol in [(1.0, 1.0), (8.83, 0.852), (3.3, 0.1)]:
        assert nf.lambda1(params, S, vol) == pytest.approx(float(mp_lambda1(params, S, vol)), rel=1e-12)


def test_lambda1_monotone_in_S_and_volume():
    assert nf.lambda1(CRIT, 2.0, 1.0) > nf.lambda1(CRIT, 1.0, 1.0)
    ab, p, q = CRIT.ab, CRIT.p, CRIT.q
    factor = 2.0 ** (-(p / (p - q)) * ((ab - q) / ab))
    assert nf.lambda1(CRIT, 1.5, 2.0) == pytest.approx(factor * nf.lambda1(CRIT, 1.5, 1.0), rel=1e-12)


def test_c0_extended_precision_and_second_route():
    for S, vol in [(1.0, 1.0), (8.83, 0.852), (3.3, 0.25)]:
        v = nf.c0(CRIT, S, vol)
        assert v == pytest.approx(float(mp_c0(CRIT, S, vol)), rel=1e-12)
        assert v == pytest.approx(c0_via_chat(CRIT, S, vol), rel=1e-12)


def test_c0_limits():
    assert nf.c0(CRIT, 1.0, 1e-9) < 1e-6          # vanishes with the volume
    assert nf.c0(CRIT, 2.0, 1.0) < nf.c0(CRIT, 1.0, 1.0)  # decreasing in S


def test_c_infty_values():
    c0v = nf.c0(CRIT, 1.0, 1.0)
    base = nf.c_infty(CRIT, 2.0, c0v, 0.0, 0.0)
    n, p, s = CRIT.n, CRIT.p, CRIT.s
    assert base == pytest.approx((2 * s / n) * 1.0 ** (n / (p * s)), rel=1e-14)
    assert nf.c_infty(CRIT, 2.0, c0v, 0.5, 0.2) < base
    # crossing location solves a linear equation in sigma
    sigma_cross = base / c0v
    lam = (sigma_cross / 2.0) ** ((p - CRIT.q) / p)
    assert nf.c_infty(CRIT, 2.0, c0v, lam, lam) == pytest.approx(0.0, abs=1e-12 * base)


def test_d0_bound_behavior():
    S, vol = 8.83, 0.852
    at_zero = nf.d0_bound(CRIT, S, vol, 0.0, 0.0)
    assert at_zero.value > 0 and at_zero.smallness_ok
    small = nf.d0_bound(CRIT, S, vol, 0.5, 0.5)
    tiny = nf.d0_bound(CRIT, S, vol, 0.1, 0.1)
    assert tiny.value > small.value  # decreasing in the combined weight
    # outside the smallness range the value is still reported, with the flag off
    lam1 = nf.lambda1(CRIT, S, vol)
    big = (lam1 * 2.0) ** ((CRIT.p - CRIT.q) / CRIT.p)
    outside = nf.d0_bound(CRIT, S, vol, big, big)
    assert not outside.smallness_ok


def test_d0_bound_sign_change_matches_bisection():
    S, vol = 8.83, 0.852
    p, q = CRIT.p, CRIT.q

    def value(sig):
        lam = (sig / 2.0) ** ((p - q) / p)
        return nf.d0_bound(CRIT, S, vol, lam, lam).value

    lo, hi = 1e-8, 1e12
    assert value(lo) > 0 > value(hi)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if value(mid) > 0:
            lo = mid
        else:
            hi = mid
    # closed-form crossing of the bracket
    ab = CRIT.ab
    lead = (1 / p - 1 / ab) * ((p - q) / (2 * (ab - q))) ** ((p - q) / (ab - p)) * S ** (ab * (p - q) / (p * (ab - p)))
    sub = (1 / q - 1 / ab) * S ** (-q / p) * vol ** ((ab - q) / ab)
    sigma_cross = (lead / sub) ** (p / (p - q))
    assert math.sqrt(lo * hi) == pytest.approx(sigma_cross, rel=1e-6)


def test_g_min_values_and_oracle():
    x0, gmin = g_min(CRIT)
    assert gmin == pytest.approx(2.0, rel=1e-14) and x0 == pytest.approx(1.0)
    # boundary arithmetic (alpha, beta) = (3, 1), p = 2, a+b = 4:
    # x0 = sqrt(3), gmin = 3^(1/4) + 3^(-3/4) ~ 1.75477
    assert math.sqrt(3.0) ** (2 * 1 / 4) + math.sqrt(3.0) ** (-2 * 3 / 4) == pytest.approx(1.75477, rel=1e-5)
    skew = nf.ModelParams(n=4, p=2.0, s=0.5, q=1.5, alpha=2.5, beta=1.5)  # a+b = p* = 4
    x0, gmin = g_min(skew)
    assert x0 == pytest.approx(math.sqrt(2.5 / 1.5), rel=1e-14)
    assert gmin == pytest.approx((2.5 / 1.5) ** (1.5 / 4) + (1.5 / 2.5) ** (2.5 / 4), rel=1e-13)
    # golden-section oracle on g itself
    from scipy import optimize
    res = optimize.minimize_scalar(lambda x: coupling_ratio_g(skew, x), bracket=(0.5, 1.5, 6.0),
                                   method="golden", options={"xtol": 1e-13})
    assert x0 == pytest.approx(res.x, rel=5e-7)
    samples = np.geomspace(0.05, 40.0, 100)
    assert all(gmin <= coupling_ratio_g(skew, x) + 1e-12 for x in samples)


def test_ratio_predicted_properties():
    skew = nf.ModelParams(n=4, p=2.0, s=0.5, q=1.5, alpha=2.5, beta=1.5)
    swapped = nf.ModelParams(n=4, p=2.0, s=0.5, q=1.5, alpha=1.5, beta=2.5)
    assert nf.ratio_predicted(swapped) == pytest.approx(nf.ratio_predicted(skew), rel=1e-14)
    assert nf.ratio_predicted(CRIT) == 2.0
    # the (3, 1) boundary value of the printed factor
    assert 3.0 ** 0.25 + 3.0 ** -0.75 == pytest.approx(1.75477, rel=1e-5)


def test_hypotheses_check_cases():
    good = nf.hypotheses_check(nf.ModelParams(n=2, p=2.0, s=0.4, q=1.8, alpha=5 / 3, beta=5 / 3))
    assert good == {
        "dimension_ok": True, "small_p_ok": True, "q_range_ok": True,
        "critical_ok": True, "all_ok": True,
    }
    bad_dim = nf.hypotheses_check(nf.ModelParams(n=1, p=2.0, s=0.4, q=1.5, alpha=4.0, beta=4.0))
    assert not bad_dim["dimension_ok"]
    # q below the threshold n(p-1)/(n-ps) = 5/3
    low_q = nf.hypotheses_check(nf.ModelParams(n=2, p=2.0, s=0.4, q=1.5, alpha=5 / 3, beta=5 / 3))
    assert not low_q["q_range_ok"]
    small_p = nf.hypotheses_check(nf.ModelParams(n=1, p=1.5, s=0.3, q=1.2, alpha=2.0, beta=2.5))
    assert small_p["small_p_ok"] == (1 < 1.5 * 0.3 / 0.5)


# ---------------------------------------------------------------------------
# Quotient solvers
# ---------------------------------------------------------------------------

def test_rayleigh_quotient_scale_invariant(dom):
    params = CRIT
    rng = np.random.default_rng(0)
    u = rng.standard_normal(dom.n_interior)
    assert rayleigh_quotient(dom, params, u) == pytest.approx(rayleigh_quotient(dom, params, 2.0 * u), rel=1e-12)
    assert rayleigh_quotient(dom, params, np.abs(u)) <= rayleigh_quotient(dom, params, u) + 1e-12


def test_compute_S_descent_is_monotone_and_beats_probes(monkeypatch):
    from nehari_frac import constants

    params = nf.ModelParams(n=1, p=2.0, s=0.4, q=1.5, alpha=2.0, beta=2.0)
    dom = nf.build_grid(1, 8, 1.0, 1.0, params)
    real, runs = constants.descent_steps, []

    def recording(start, stop):
        """descent_steps, keeping the start's value and then each trial value
        not above the last one kept."""
        kept, run, evaluation = [start[1]], real(start, stop), None
        try:
            while True:
                evaluation = yield run.send(evaluation)
                if evaluation is not None and evaluation[1] <= kept[-1]:
                    kept.append(evaluation[1])
        except StopIteration as done:
            runs.append((kept, done.value))
            return done.value

    monkeypatch.setattr(constants, "descent_steps", recording)
    s_d, s_min = nf.compute_S(dom, params, seed=3, restarts=4)
    assert len(runs) == 4
    for kept, run in runs:  # each run accepted exactly the trials that did not raise its value
        assert (len(kept) - 1, kept[-1]) == (run.iterations, run.value)
    assert np.all(s_min.values >= 0)
    assert s_d == pytest.approx(rayleigh_quotient(dom, params, s_min), rel=1e-12)
    rng = np.random.default_rng(123)
    probes = [rayleigh_quotient(dom, params, rng.standard_normal(dom.n_interior)) for _ in range(1000)]
    assert s_d <= min(probes)


def test_random_positive_starts_split_like_per_component_draws():
    """One draw of 2n per spawned child equals two successive draws of n, so
    the branch starts kept their stream when they moved onto the helper."""
    n = 7
    starts = random_positive_starts(np.random.SeedSequence(5, spawn_key=(1,)), 3, 2 * n, 1e-3)
    children = np.random.SeedSequence(5, spawn_key=(1,)).spawn(3)
    assert len(starts) == 3
    for x, child in zip(starts, children):
        rng = np.random.default_rng(child)
        assert np.array_equal(x[:n], np.abs(rng.standard_normal(n)) + 1e-3)
        assert np.array_equal(x[n:], np.abs(rng.standard_normal(n)) + 1e-3)


@pytest.mark.parametrize("low", [3.0, -3.0])
def test_first_lowest_picks_the_first_start_within_tie_rtol(low):
    """The one rule that picks the start a lockstep solve reports: None runs
    are skipped, a value 5e-14 (relative) above the lowest ties with it and
    one 2e-13 above does not, and among ties the first start wins."""
    assert TIE_RTOL == 1e-13
    run = lambda rel: Descent(np.zeros(1), low + rel * abs(low), np.zeros(1), FLAT, 0)
    assert first_lowest([]) is None and first_lowest([None, None]) is None
    assert first_lowest([None, run(0.0)]) == 1
    assert first_lowest([run(2e-13), None, run(0.0), run(5e-14)]) == 2
    assert first_lowest([None, run(5e-14), run(1.0), run(0.0)]) == 1
    assert first_lowest([run(1e-14), run(0.0), None, run(1e-14)]) == 0


def test_compute_S_reports_the_first_start_of_a_tied_minimum(dom12, monkeypatch):
    """compute_S picks its start by first_lowest: with start 2 made the
    lowest and start 0 set 5e-14 (relative) above it, start 0 is reported."""
    from nehari_frac import constants

    real, made = constants.descend, []

    def tied(*args, **kwargs):
        runs = real(*args, **kwargs)
        low = min(run.value for run in runs) * (1.0 - 1e-9)
        runs[2] = runs[2]._replace(value=low)
        runs[0] = runs[0]._replace(value=low + 5e-14 * low)
        made.append(runs)
        return runs

    monkeypatch.setattr(constants, "descend", tied)
    s_d, s_min = nf.compute_S(dom12, CRIT, seed=0, restarts=4)
    [runs] = made
    assert s_d == runs[0].value
    assert np.array_equal(s_min.values, runs[0].x)


def test_compute_S_coupled_runs_each_start_once(dom12, monkeypatch):
    """The back-solve and its follow-up run only their new starts; the bump
    starts ran in the first two solves already."""
    from nehari_frac import constants

    restarts = 3
    s_d0, _ = nf.compute_S(dom12, CRIT, seed=0, restarts=restarts)
    real, starts = constants.descent_steps, []

    def recording(start, *args, **kwargs):
        starts.append(start[0].tobytes())
        return real(start, *args, **kwargs)

    monkeypatch.setattr(constants, "descent_steps", recording)
    s_d, _, _, _ = nf.compute_S_coupled(dom12, CRIT, seed=0, restarts=restarts)
    assert len(starts) == 2 * restarts + 2 + (s_d < s_d0)
    assert len(set(starts)) == len(starts)
    with pytest.raises(ValueError, match="no starting points"):
        nf.compute_S(dom12, CRIT, restarts=0)


def _stopped(run):
    """A descent_steps stand-in that returns run before its first trial."""
    return run
    yield


def test_compute_S_coupled_back_solve_over_budget_is_a_candidate(dom12, monkeypatch):
    """The seeded starts have finished, so a back-solve start that hits its
    budget is valued by its quotient instead of raising ConvergenceError."""
    from nehari_frac import constants

    restarts = 2
    real, calls = constants.descent_steps, []

    def budget_on_back_solve(start, stop):
        calls.append(start)
        if len(calls) == 2 * restarts + 2:  # after restarts scalar and restarts + 1 pair starts
            return _stopped(constants.Descent(*start, BUDGET, stop.max_iter))
        return real(start, stop)

    monkeypatch.setattr(constants, "descent_steps", budget_on_back_solve)
    s_d, s_min, _, _ = nf.compute_S_coupled(dom12, CRIT, seed=0, restarts=restarts)
    assert len(calls) >= 2 * restarts + 2
    assert s_d == pytest.approx(rayleigh_quotient(dom12, CRIT, s_min), rel=1e-12)


def test_compute_S_alpha_beta_rejects_disjoint_supports(dom12):
    params = CRIT
    n = dom12.n_interior
    u = np.zeros(n); u[0] = 1.0
    v = np.zeros(n); v[1] = 1.0
    with pytest.raises(ValueError, match="coupled quotient undefined"):
        coupled_quotient(dom12, params, nf.FieldPair(nf.Field(u), nf.Field(v)))


QUOTIENT_PARAMS = {
    "p2": (nf.ModelParams(**DESK), 2, 8),
    "p2-asym": (nf.ModelParams(n=2, p=2.0, s=0.4, q=1.8, alpha=2.0, beta=4 / 3), 2, 8),
    "p3": (nf.ModelParams(n=2, p=3.0, s=0.1, q=2.5, alpha=30 / 17, beta=30 / 17), 2, 8),
    "p1.5": (nf.ModelParams(n=1, p=1.5, s=0.3, q=1.2, alpha=2.0, beta=2.0), 1, 9),
}


@pytest.mark.parametrize("pair", [False, True], ids=["S", "S_ab"])
@pytest.mark.parametrize("case", list(QUOTIENT_PARAMS))
def test_quotient_round_matches_per_row_oracles(case, pair):
    """One evaluation of a quotient round (compute_S, compute_S_alpha_beta)
    equals, row by row, the oracle quotient (rayleigh_quotient,
    coupled_quotient) at |raw| placed on its constraint (|u|_{p*} = 1,
    D/2 = 1): the point to 1e-13, the value to 1e-13 relative, and the
    gradient against a central difference of the oracle along three random
    directions (tangent and normal parts alike), to 1e-8 of |grad| |d|.  The rows:
    a positive state, that state times 3 with random signs, the zero state
    and, for the pair, two components with disjoint supports (D = 0); the
    last two cannot be placed.  The evaluations hold their own arrays, and
    an empty round gives no evaluations."""
    params, dim, m = QUOTIENT_PARAMS[case]
    dom = nf.build_grid(dim, m, 1.0, 1.0, params)
    n = dom.n_interior
    rng = np.random.default_rng(3)
    size = 2 * n if pair else n
    a0 = 7.0 * (np.abs(rng.standard_normal(size)) + 0.1)  # far off the constraint
    raws = [a0, 3.0 * np.where(rng.random(size) < 0.5, -1.0, 1.0) * a0, np.zeros(size)]
    if pair:
        half = np.arange(n) < n // 2
        raws.append(np.concatenate([np.where(half, a0[:n], 0.0), np.where(half, 0.0, a0[n:])]))

    def quotient(x):
        if pair:
            return coupled_quotient(dom, params, nf.FieldPair(nf.Field(x[:n]), nf.Field(x[n:])))
        return rayleigh_quotient(dom, params, x)

    def placed(a):
        """|raw| on the constraint."""
        if pair:
            return a * (ray_triple(params, dom, a[:n], a[n:]).D / 2.0) ** (-1.0 / params.ab)
        return a / lr_norm(dom, a, params.p_star)

    evaluate = quotient_round(nf.compute_S_alpha_beta if pair else nf.compute_S, dom, params)
    evaluations = evaluate(raws)
    assert [e is None for e in evaluations] == [False, False] + [True] * (len(raws) - 2)
    for raw, (x, value, grad) in zip(raws, evaluations[:2]):
        assert x.base is None and grad.base is None
        xo = placed(np.abs(raw))
        assert np.max(np.abs(x - xo)) <= 1e-13 * np.max(xo)
        assert value == pytest.approx(quotient(xo), rel=1e-13)
        for _ in range(3):
            d = rng.standard_normal(size)
            h = 1e-4 * np.min(xo) / np.max(np.abs(d))
            slope = (quotient(xo + h * d) - quotient(xo - h * d)) / (2.0 * h)
            assert abs(slope - grad @ d) <= 1e-8 * np.linalg.norm(grad) * np.linalg.norm(d)
    assert evaluate([]) == []


def test_split_pair_init_value_identity(dom12):
    """Splitting the scalar minimizer with the optimal ratio multiplies its
    quotient by exactly the predicted factor."""
    params = CRIT
    s_d, s_min = nf.compute_S(dom12, params, seed=0, restarts=3)
    w = s_min.values
    ratio = (params.alpha / params.beta) ** (1.0 / params.p)
    pair = nf.FieldPair(nf.Field(ratio * w), nf.Field(w))
    q_pair = coupled_quotient(dom12, params, pair)
    q_scalar = rayleigh_quotient(dom12, params, w)
    assert q_pair == pytest.approx(nf.ratio_predicted(params) * q_scalar, rel=1e-12)


def test_coupled_quotient_scale_invariance(dom12):
    params = CRIT
    rng = np.random.default_rng(7)
    pair = random_pair(dom12, rng, positive=True)
    v1 = coupled_quotient(dom12, params, pair)
    scaled = nf.FieldPair(nf.Field(3.3 * pair.u.values), nf.Field(3.3 * pair.v.values))
    assert coupled_quotient(dom12, params, scaled) == pytest.approx(v1, rel=1e-12)


def test_ratio_identity_symmetric(dom12):
    s_d, _, s_ab, _ = nf.compute_S_coupled(dom12, CRIT, seed=0)
    assert nf.ratio_check(s_d, s_ab, CRIT) <= 2e-6  # two solvers at 1e-6 flatness


def test_ratio_identity_asymmetric(dom12):
    params = nf.ModelParams(n=2, p=2.0, s=0.4, q=1.8, alpha=2.0, beta=4 / 3)
    s_d, _, s_ab, _ = nf.compute_S_coupled(dom12, params, seed=0)
    assert nf.ratio_check(s_d, s_ab, params) <= 2e-6


# ---------------------------------------------------------------------------
# Inequality spot checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sd12(dom12):
    params = nf.ModelParams(**DESK, lam=0.7, mu=0.4)
    s_d, s_min = nf.compute_S(dom12, params, seed=0, restarts=4)
    return params, s_d, s_min


def test_holder_bound_zero_pair(dom12, sd12):
    params, s_d, _ = sd12
    zero = nf.Field(np.zeros(dom12.n_interior))
    assert holder_bound_check(params, dom12, nf.FieldPair(zero, zero), s_d) == 0.0


def test_holder_bound_random_probes(dom12, sd12):
    params, s_d, _ = sd12
    rng = np.random.default_rng(21)
    for _ in range(1000):
        pair = random_pair(dom12, rng)
        assert holder_bound_check(params, dom12, pair, s_d) >= -1e-12


def test_holder_bound_at_minimizer_strictly_positive(dom12, sd12):
    params, s_d, s_min = sd12
    solo = params.with_weights(params.lam, 0.0)
    pair = nf.FieldPair(s_min, nf.Field(np.zeros(dom12.n_interior)))
    slack = holder_bound_check(solo, dom12, pair, s_d)
    assert slack > 0  # strict for q < p


def test_young_bound_probes(dom12, sd12):
    params, s_d, s_min = sd12
    zero = nf.Field(np.zeros(dom12.n_interior))
    assert young_bound_check(params, dom12, nf.FieldPair(zero, zero), s_d) == 0.0
    rng = np.random.default_rng(22)
    for _ in range(1000):
        pair = random_pair(dom12, rng)
        assert young_bound_check(params, dom12, pair, s_d) >= -1e-12
    equal = nf.FieldPair(s_min, s_min)
    assert young_bound_check(params, dom12, equal, s_d) >= -1e-12


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def test_constants_report_fields(dom12):
    params = nf.ModelParams(**DESK, lam=0.5, mu=0.5)
    s_d, _, s_ab_d, _ = nf.compute_S_coupled(dom12, params, seed=0, restarts=4)
    report = nf.thresholds(params, dom12.volume, s_d, s_ab_d)
    d = report.to_dict()
    assert d["ratio_predicted"] == 2.0
    assert d["ratio_error"] <= 2e-6
    assert d["hypotheses_ok"]["all_ok"]
    assert d["S_d"] > 0 and d["C0"] > 0 and d["lambda1"] > 0
    assert d["critical_formula_exact"]
    assert report.c_infty == pytest.approx(
        nf.c_infty(params, report.S_ab_d, report.C0, 0.5, 0.5), rel=1e-14
    )


def _square(x):
    """Evaluation for unconstrained descent of |x|^2."""
    return x, float(np.dot(x, x)), 2.0 * x


def _each(point_evaluation):
    """descend's list evaluation from a one-point evaluation."""
    return lambda raws: [point_evaluation(x) for x in raws]


def test_descend_reports_line_search_exhaustion():
    """A value that rises with every evaluation stops the line search."""
    calls = itertools.count()

    def rising(x):
        return x, float(next(calls)), 2.0 * x

    x0 = np.array([1.0, -2.0])
    [run] = descend([x0], _each(rising), StopRule(max_iter=50, flat_tol=1e-12))
    assert run.stop_reason == LINE_SEARCH_EXHAUSTED
    assert run.iterations == 0
    assert next(calls) == 55  # the start and 54 rejected proposals; the last 6 repeat the 54th
    assert np.array_equal(run.x, x0)


def test_descend_evaluates_a_repeated_proposal_once():
    """Where every s g lies below the spacing of x, all 60 proposals equal x:
    the first is evaluated and the rest reuse it, with the same Descent."""
    calls = itertools.count()

    def raised(x):  # the start has value 1, every proposal 2
        return x, 1.0 + min(next(calls), 1), np.array([1e-20, -1e-20])

    x0 = np.array([1.0, -2.0])
    [run] = descend([x0], _each(raised), StopRule(max_iter=50, flat_tol=1e-12))
    assert (run.stop_reason, run.iterations, run.value) == (LINE_SEARCH_EXHAUSTED, 0, 1.0)
    assert np.array_equal(run.x, x0)
    assert next(calls) == 2  # the start and one proposal (61 when every proposal was evaluated)


def test_descend_stops_on_gradient_and_budget():
    x0 = np.array([3.0, 4.0])
    stop = StopRule(max_iter=50, flat_tol=-np.inf, grad_rtol=1e-8, armijo=1e-4)
    [run] = descend([x0], _each(_square), stop)
    assert run.stop_reason == GRAD_TOL
    assert np.linalg.norm(run.grad) <= 1e-8 * 10.0
    [run] = descend([x0], _each(_square), StopRule(max_iter=0, flat_tol=1e-12))
    assert (run.stop_reason, run.iterations) == (BUDGET, 0)


def test_descent_peak_is_the_largest_size_of_the_start_and_accepted_points():
    """An evaluation's 4th entry is a size, and a run's peak is its largest
    over the start and the accepted points: the start's where the sizes
    fall, the last accepted point's where they rise, never a rejected
    trial's, and 0 where evaluations carry none."""
    x0 = np.array([3.0, 4.0])
    stop = StopRule(max_iter=50, flat_tol=-np.inf, grad_rtol=1e-8, armijo=1e-4)
    [falling] = descend([x0], _each(lambda x: (*_square(x), _square(x)[1])), stop)
    assert falling.iterations > 1 and falling.peak == _square(x0)[1]
    [rising] = descend([x0], _each(lambda x: (*_square(x), -_square(x)[1])), stop)
    assert rising.peak == -rising.value
    calls = itertools.count()
    rejected = _each(lambda x: (x, (value := float(next(calls))), 2.0 * x, 10.0 + value))  # values 0, 1, 2, ...
    [run] = descend([x0], rejected, stop)
    assert (run.stop_reason, run.peak) == (LINE_SEARCH_EXHAUSTED, 10.0)
    [run] = descend([x0], _each(_square), stop)
    assert run.peak == 0.0


def _bowl_or_wall(x):
    """sum a x^2 with a = 1, 10, 100 and its gradient where x[0] >= -1/2;
    elsewhere it is sum |x[1:]| with an uphill gradient, so from [-1, 0, 0]
    every proposal is rejected; None for a point with a NaN."""
    if np.isnan(x).any():
        return None
    if x[0] < -0.5:
        return x, float(np.sum(np.abs(x[1:]))), np.array([0.0, -1.0, -1.0])
    ax = np.array([1.0, 10.0, 100.0]) * x
    return x, float(np.dot(ax, x)), 2.0 * ax


def test_descend_lockstep_runs_equal_single_start_runs():
    """Advancing the starts in lockstep, one list evaluation per round, gives
    every start the Descent and the accepted points it gets alone; a start
    whose own evaluation is None gets None and no trial."""
    inits = [np.array(x) for x in ([1.0, 1.0, 1.0], [np.nan, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])]
    stop = StopRule(max_iter=8, flat_tol=-np.inf, grad_rtol=1e-10, armijo=1e-4)
    batches = []

    def evaluate(raws):
        batches.append(len(raws))
        return [_sized_bowl_or_wall(x) for x in raws]

    runs = descend(inits, evaluate, stop)
    assert batches[0] == 4 and max(batches[1:]) == 3
    assert runs[1] is None
    assert [run.stop_reason for run in runs if run is not None] == [BUDGET, GRAD_TOL, LINE_SEARCH_EXHAUSTED]
    for k, x0 in enumerate(inits):
        [run] = descend([x0], _each(_sized_bowl_or_wall), stop)
        assert_same_runs([runs[k]], [run])


def _sized_bowl_or_wall(x):
    """_bowl_or_wall with the largest |x_i| as the evaluation's size."""
    evaluation = _bowl_or_wall(x)
    return evaluation and (*evaluation, float(np.max(np.abs(x))))


def test_step_after_nonpositive_curvature_is_the_difference_ratio():
    """An accepted step with dx.dg <= 0 sets the next step to |dx| / |dg|;
    keeping the last step there froze it at 1/max(1, |g0|) on the N+ branch.
    Positive curvature gives the BB1 step dx.dx / dx.dg, and dg = 0 keeps
    the last step."""
    x0, g0 = np.zeros(2), np.array([0.5, 0.0])
    run = descent_steps((x0, 1.0, g0), StopRule(max_iter=5, flat_tol=-np.inf))
    x1 = next(run)
    assert np.array_equal(x1, x0 - g0)  # first step 1/max(1, |g0|) = 1
    g1 = np.array([1.0, 0.3])
    dx, dg = x1 - x0, g1 - g0
    assert np.dot(dx, dg) < 0
    x2 = run.send((x1, 0.5, g1))
    step = np.linalg.norm(dx) / np.linalg.norm(dg)
    assert step != 1.0 and np.allclose(x2, x1 - step * g1, rtol=1e-15, atol=0)
    g2 = g1 + 2.0 * (x2 - x1)  # dg = 2 dx: the BB1 step is 1/2
    x3 = run.send((x2, 0.25, g2))
    assert np.allclose(x3, x2 - 0.5 * g2, rtol=1e-15, atol=0)
    x4 = run.send((x3, 0.125, g2))  # dg = 0
    assert np.allclose(x4, x3 - 0.5 * g2, rtol=1e-15, atol=0)


def test_compute_S_nonconvergence_attaches_iterate(monkeypatch):
    """With no step allowed every start stops at its budget; the error carries
    the best start's value and state, not the last start's, and the value is
    that state's quotient."""
    from nehari_frac import constants
    from nehari_frac.errors import ConvergenceError

    params = nf.ModelParams(n=1, p=2.0, s=0.4, q=1.5, alpha=2.0, beta=2.0)
    dom = nf.build_grid(1, 6, 1.0, 1.0, params)
    monkeypatch.setattr(constants, "QUOTIENT_MAX_ITER", 0)
    with pytest.raises(ConvergenceError) as exc:
        nf.compute_S(dom, params, seed=0, restarts=4)
    err = exc.value
    assert err.last_iterate.values.shape == (dom.n_interior,)
    starts = [constants.bump_field(dom)] + random_positive_starts(np.random.SeedSequence(0), 3, dom.n_interior, 1e-6)
    quotients = [rayleigh_quotient(dom, params, x) for x in starts]
    assert min(quotients) < quotients[-1]
    assert err.last_value == pytest.approx(min(quotients), rel=1e-12)
    assert err.last_value == pytest.approx(rayleigh_quotient(dom, params, err.last_iterate), rel=1e-12)
