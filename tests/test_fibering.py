import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import nehari_frac as nf
from nehari_frac.errors import NehariFracError, ZeroPairError
from nehari_frac.fibering import (
    ABOVE_THRESHOLD,
    MINUS_ONLY,
    NMINUS,
    NO_ROOTS,
    NPLUS,
    NZERO,
    OFF_MANIFOLD,
    PLUS_ONLY,
    ROOT_RTOL,
    TWO_ROOTS,
    ReducedTriple,
    branch_root,
    classify_triple,
    project_triple,
    sample_curves,
)

from conftest import (
    DESK, DegenerateDirectionError, balanced_params, bisection_branch_root, first_variation, nehari_constraint,
    phi_second_consistency, phi_second_expressions, psi_prime, random_pair, scale_pair, xi_prime,
)

TOY = nf.ModelParams(n=2, p=2.0, s=0.4, q=1.5, alpha=2.0, beta=2.0, lam=1.0, mu=1.0)


def toy_triple(P=1.0, B=0.1, D=0.1):
    return ReducedTriple(P, B, D)


# ---------------------------------------------------------------------------
# Reduced coefficients
# ---------------------------------------------------------------------------

def test_reduce_zero_pair_rejected(params, dom):
    zero = nf.Field(np.zeros(dom.n_interior))
    with pytest.raises(ZeroPairError, match="zero pair"):
        nf.reduce_pair(params, dom, nf.FieldPair(zero, zero))


def test_reduce_semitrivial_has_no_coupling(params, dom):
    rng = np.random.default_rng(0)
    u = nf.Field(rng.standard_normal(dom.n_interior))
    t = nf.reduce_pair(params, dom, nf.FieldPair(u, nf.Field(np.zeros(dom.n_interior))))
    assert t.D == 0.0
    expected_B = params.lam * dom.h ** 2 * np.sum(np.abs(u.values) ** params.q)
    assert t.B == pytest.approx(expected_B, rel=1e-13)


def test_reduce_scaling_homogeneity(params, dom):
    pair = random_pair(dom, np.random.default_rng(1))
    t1 = nf.reduce_pair(params, dom, pair)
    c = 1.7
    t2 = nf.reduce_pair(params, dom, scale_pair(pair, c))
    assert t2.P == pytest.approx(c ** params.p * t1.P, rel=1e-12)
    assert t2.B == pytest.approx(c ** params.q * t1.B, rel=1e-12)
    assert t2.D == pytest.approx(c ** params.ab * t1.D, rel=1e-12)


def test_reduce_cross_checked_against_energy_terms(params, dom):
    """(P, B, D) against the three terms of J summed term by term."""
    pair = random_pair(dom, np.random.default_rng(2))
    t = nf.reduce_pair(params, dom, pair)
    u, v = np.abs(pair.u.values), np.abs(pair.v.values)
    gradient_term = (nf.seminorm_p(dom, pair.u) ** params.p + nf.seminorm_p(dom, pair.v) ** params.p) / params.p
    concave_term = dom.cell * (params.lam * np.sum(u ** params.q) + params.mu * np.sum(v ** params.q)) / params.q
    coupling_term = 2.0 * dom.cell * np.sum(u ** params.alpha * v ** params.beta) / params.ab
    assert t.P == pytest.approx(params.p * gradient_term, rel=1e-13)
    assert t.B == pytest.approx(params.q * concave_term, rel=1e-13)
    assert t.D == pytest.approx(params.ab * coupling_term, rel=1e-13)


# ---------------------------------------------------------------------------
# The maps themselves
# ---------------------------------------------------------------------------

def test_phi_prime_hand_value():
    # P=1, B=0.1, D=0.1, p=2, q=1.5, a+b=4: phi'(1) = 1 - 0.1 - 0.1 = 0.8
    assert nf.phi_prime(toy_triple(), TOY, 1.0) == pytest.approx(0.8, rel=1e-15)


def test_phi_positive_domain_only():
    for fun in (nf.phi, nf.phi_prime, nf.phi_second, nf.psi):
        with pytest.raises(ValueError):
            fun(toy_triple(), TOY, 0.0)
        with pytest.raises(ValueError):
            fun(toy_triple(), TOY, -1.0)


def test_phi_prime_of_pure_gradient_ray_positive():
    t = ReducedTriple(2.0, 0.0, 0.0)
    for tt in (0.1, 1.0, 7.0):
        assert nf.phi_prime(t, TOY, tt) > 0


def test_phi_prime_times_t_is_scaled_nehari(params, dom):
    pair = random_pair(dom, np.random.default_rng(3))
    triple = nf.reduce_pair(params, dom, pair)
    for t in (0.3, 1.0, 2.7):
        scaled = scale_pair(pair, t)
        lhs = t * nf.phi_prime(triple, params, t)
        assert lhs == pytest.approx(nehari_constraint(params, dom, scaled), rel=1e-10)


def test_phi_prime_equals_first_variation_along_ray(params, dom):
    # stationarity identity behind the fibering method
    pair = random_pair(dom, np.random.default_rng(4))
    triple = nf.reduce_pair(params, dom, pair)
    for t in (0.4, 1.3):
        fv = first_variation(params, dom, scale_pair(pair, t), pair)
        assert nf.phi_prime(triple, params, t) == pytest.approx(fv, rel=1e-10)


def test_psi_limits():
    t = toy_triple()
    assert nf.psi(t, TOY, 1e-9) < -1e10            # -> -infinity when B > 0
    assert abs(nf.psi(t, TOY, 1e9)) < 1e-15        # -> 0 at infinity


def test_t_max_hand_value():
    # ((a+b-q) B / ((a+b-p) P))^(1/(p-q)) = (0.25/2)^2
    assert nf.t_max(toy_triple(), TOY) == pytest.approx(0.015625, rel=1e-14)


def test_t_max_scaling_in_B():
    t1 = nf.t_max(toy_triple(B=0.1), TOY)
    c = 3.7
    t2 = nf.t_max(toy_triple(B=c * 0.1), TOY)
    assert t2 == pytest.approx(c ** (1.0 / (TOY.p - TOY.q)) * t1, rel=1e-13)


def test_t_max_requires_concave_mass():
    with pytest.raises(NehariFracError, match="no interior maximum"):
        nf.t_max(toy_triple(B=0.0), TOY)


def test_t_max_matches_golden_section():
    t = toy_triple(P=2.3, B=0.31, D=0.0)
    res = optimize.minimize_scalar(
        lambda x: -nf.psi(t, TOY, x), bracket=(1e-4, 0.05, 10.0), method="golden",
        options={"xtol": 1e-12},
    )
    # Psi is flat at its maximum, so a derivative-free oracle can only locate
    # the argmax to about sqrt(machine eps) relative
    assert nf.t_max(t, TOY) == pytest.approx(res.x, rel=5e-8)


def test_psi_monotone_around_t_max():
    t = toy_triple(P=1.4, B=0.2, D=0.05)
    tm = nf.t_max(t, TOY)
    before = np.linspace(0.05 * tm, 0.95 * tm, 40)
    after = np.geomspace(1.05 * tm, 20 * tm, 40)
    vb = [nf.psi(t, TOY, x) for x in before]
    va = [nf.psi(t, TOY, x) for x in after]
    assert np.all(np.diff(vb) > 0)
    assert np.all(np.diff(va) < 0)


def test_eq_2_8_identity_at_roots():
    t = toy_triple()
    rep = project_triple(t, TOY)
    assert rep.outcome == TWO_ROOTS
    for root in (rep.t1, rep.t2):
        lhs = root ** (TOY.ab - 1.0) * psi_prime(t, TOY, root)
        rhs = nf.phi_second(t, TOY, root)
        scale = (TOY.p - 1) * t.P + (TOY.q - 1) * t.B + (TOY.ab - 1) * t.D
        assert abs(lhs - rhs) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_projection_hand_example_two_roots():
    # Psi(t_max) = 819.2 >> D = 0.1: two roots exist
    t = toy_triple()
    assert nf.psi(t, TOY, nf.t_max(t, TOY)) == pytest.approx(819.2, rel=1e-12)
    rep = project_triple(t, TOY)
    assert rep.outcome == TWO_ROOTS
    assert 0 < rep.t1 < rep.t_max < rep.t2
    assert nf.phi_second(t, TOY, rep.t1) > 0 > nf.phi_second(t, TOY, rep.t2)
    assert rep.branch_energy_plus == pytest.approx(nf.phi(t, TOY, rep.t1), rel=1e-15)
    assert rep.branch_energy_minus == pytest.approx(nf.phi(t, TOY, rep.t2), rel=1e-15)


def test_projection_roots_against_brentq():
    t = toy_triple(P=1.9, B=0.33, D=0.21)
    rep = project_triple(t, TOY)
    tm = rep.t_max
    f = lambda x: nf.phi_prime(t, TOY, x)
    r1 = optimize.brentq(f, 1e-12, tm, xtol=1e-15, rtol=1e-15)
    r2 = optimize.brentq(f, tm, 1e6, xtol=1e-15, rtol=1e-15)
    assert rep.t1 == pytest.approx(r1, rel=1e-11)
    assert rep.t2 == pytest.approx(r2, rel=1e-11)


def test_projection_brackets_roots_across_scales():
    # t_max ~ 2e-50 and t2 ~ 1.8e11 on the first ray, so bracketing by
    # doubling from t_max runs out of steps; the second ray has B/P = 1e-20
    desk = nf.ModelParams(**DESK, lam=1.0, mu=1.0)
    for t in (ReducedTriple(1.0, 1e-10, 1e-15), ReducedTriple(1.0, 1e-20, 1e-15)):
        rep = project_triple(t, desk)
        assert rep.outcome == TWO_ROOTS
        assert 0 < rep.t1 < rep.t_max < rep.t2
        assert nf.phi_second(t, desk, rep.t1) > 0 > nf.phi_second(t, desk, rep.t2)
        for root in (rep.t1, rep.t2):
            # the P term is the size of the two terms that balance at each root
            assert abs(nf.phi_prime(t, desk, root)) <= 1e-10 * root ** (desk.p - 1) * t.P


def test_projection_pure_convex_ray():
    # B = 0: single maximum at (P/D)^(1/(a+b-p))
    t = toy_triple(P=2.0, B=0.0, D=0.5)
    rep = project_triple(t, TOY)
    assert rep.outcome == MINUS_ONLY
    assert rep.t1 is None and rep.branch_energy_plus is None
    assert rep.t2 == pytest.approx((2.0 / 0.5) ** 0.5, rel=1e-13)
    assert nf.phi_second(t, TOY, rep.t2) < 0


def test_projection_pure_concave_ray(params, dom):
    rng = np.random.default_rng(5)
    u = nf.Field(np.abs(rng.standard_normal(dom.n_interior)))
    rep = nf.project(params, dom, nf.FieldPair(u, nf.Field(np.zeros(dom.n_interior))))
    assert rep.outcome == PLUS_ONLY
    assert rep.t2 is None
    triple = rep.triple
    assert rep.t1 == pytest.approx((triple.B / triple.P) ** (1 / (params.p - params.q)), rel=1e-12)


def test_projection_above_threshold():
    # D >= Psi(t_max): the smallness condition fails on this ray
    t = toy_triple(P=1.0, B=0.1, D=1000.0)
    rep = project_triple(t, TOY)
    assert rep.outcome == ABOVE_THRESHOLD
    assert rep.t1 is None and rep.t2 is None
    assert rep.psi_at_tmax == pytest.approx(819.2, rel=1e-12)


def test_dense_scan_finds_no_other_crossings():
    # Psi(t) - D changes sign exactly at the two projection roots
    t = toy_triple(P=1.3, B=0.22, D=0.15)
    rep = project_triple(t, TOY)
    grid = np.geomspace(rep.t1 / 30.0, rep.t2 * 30.0, 20_000)
    sign = np.sign([nf.psi(t, TOY, x) - t.D for x in grid])
    flips = np.count_nonzero(np.diff(sign))
    assert flips == 2
    lo = grid[np.nonzero(np.diff(sign))[0]]
    assert np.isclose(lo[0], rep.t1, rtol=2e-3)
    assert np.isclose(lo[1], rep.t2, rtol=2e-3)


RAY_PARAMS = (
    TOY,
    nf.ModelParams(**DESK, lam=1.0, mu=1.0),
    nf.ModelParams(n=2, p=3.0, s=0.1, q=2.5, alpha=30 / 17, beta=30 / 17, lam=1.0, mu=1.0),
)


@st.composite
def rays(draw):
    """(params, triple): random (P, B, D), with B = 0, D = 0 or both drawn
    often, and D at or above Psi(t_max) on a third of the rays with B > 0."""
    params = draw(st.sampled_from(RAY_PARAMS))
    P = draw(st.floats(1e-3, 1e3))
    B = draw(st.just(0.0) | st.floats(1e-6, 1e3))
    kind = draw(st.sampled_from(("random", "zero", "threshold")))
    if kind == "zero":
        return params, ReducedTriple(P, B, 0.0)
    if kind == "threshold" and B > 0:
        level = nf.psi(ReducedTriple(P, B, 0.0), params, nf.t_max(ReducedTriple(P, B, 0.0), params))
        return params, ReducedTriple(P, B, level * draw(st.floats(1.0, 10.0)))
    return params, ReducedTriple(P, B, draw(st.floats(1e-6, 1e3)))


@settings(deadline=None, max_examples=300)
@given(rays())
def test_branch_root_is_the_projection_root(ray):
    params, triple = ray
    rep = project_triple(triple, params)
    # bit for bit, and None exactly when the outcome has no such root
    assert branch_root(triple, params, NPLUS) == rep.t1
    assert branch_root(triple, params, NMINUS) == rep.t2
    assert (rep.t1 is None) == (rep.outcome not in (TWO_ROOTS, PLUS_ONLY))
    assert (rep.t2 is None) == (rep.outcome not in (TWO_ROOTS, MINUS_ONLY))
    if triple.B > 0 and triple.D > 0:
        assert (rep.outcome == ABOVE_THRESHOLD) == (triple.D >= rep.psi_at_tmax)
    assert (rep.outcome == NO_ROOTS) == (triple.B == 0 and triple.D == 0)


@st.composite
def two_root_rays(draw):
    """(params, triple) with D a drawn fraction, 1e-6 to 0.999, of Psi(t_max)."""
    params = draw(st.sampled_from(RAY_PARAMS))
    base = ReducedTriple(draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-6, 1e3)), 0.0)
    level = nf.psi(base, params, nf.t_max(base, params))
    return params, ReducedTriple(base.P, base.B, level * draw(st.floats(1e-6, 0.999)))


@settings(deadline=None, max_examples=300)
@given(two_root_rays() | rays())
def test_newton_roots_match_the_bisection_oracle(ray):
    """The safeguarded Newton root of each branch is the bisection oracle's
    to ROOT_RTOL, and both find a root on the same rays."""
    params, triple = ray
    for branch in (NPLUS, NMINUS):
        t = branch_root(triple, params, branch)
        oracle = bisection_branch_root(triple, params, branch)
        assert (t is None) == (oracle is None)
        if t is not None:
            assert abs(t - oracle) <= ROOT_RTOL * oracle


def test_newton_root_search_is_short(monkeypatch):
    """Over 200 two-root rays per parameter set, the Newton search of a root
    evaluates phi' at most 14 times and 8 times on average, the two bracket
    ends included (the bisection it replaced took about 49)."""
    evals = []
    prime = nf.fibering.phi_prime

    def counted(*args):
        evals[-1] += 1
        return prime(*args)

    monkeypatch.setattr(nf.fibering, "phi_prime", counted)
    rng = np.random.default_rng(4)
    for params in RAY_PARAMS:
        for _ in range(200):
            base = ReducedTriple(*(10.0 ** rng.uniform(-3, 3, 2)), 0.0)
            level = nf.psi(base, params, nf.t_max(base, params))
            triple = ReducedTriple(base.P, base.B, level * 10.0 ** rng.uniform(-6, -0.001))
            for branch in (NPLUS, NMINUS):
                evals.append(0)
                assert branch_root(triple, params, branch) is not None
    assert max(evals) <= 14 and np.mean(evals) <= 8


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.floats(0.2, 5.0))
def test_projection_scale_equivariance(seed, c):
    params = nf.ModelParams(n=2, p=2.0, s=0.4, q=1.8, alpha=5 / 3, beta=5 / 3, lam=2.0, mu=1.0)
    dom = nf.build_grid(2, 4, 1.0, 1.0, params)
    pair = random_pair(dom, np.random.default_rng(seed))
    rep = nf.project(params, dom, pair)
    rep_c = nf.project(params, dom, scale_pair(pair, c))
    assert rep_c.outcome == rep.outcome
    if rep.outcome == TWO_ROOTS:
        assert rep_c.t1 * c == pytest.approx(rep.t1, rel=1e-9)
        assert rep_c.t2 * c == pytest.approx(rep.t2, rel=1e-9)


def test_projected_points_classify_to_their_branch(params, dom):
    rng = np.random.default_rng(6)
    for _ in range(5):
        pair = random_pair(dom, rng)
        rep = nf.project(params, dom, pair)
        assert rep.outcome == TWO_ROOTS
        assert classify_triple(nf.reduce_pair(params, dom, scale_pair(pair, rep.t1)), params) == NPLUS
        assert classify_triple(nf.reduce_pair(params, dom, scale_pair(pair, rep.t2)), params) == NMINUS
        assert classify_triple(nf.reduce_pair(params, dom, pair), params) == OFF_MANIFOLD


def test_lemma_2_5_branch_sign_characterization(params, dom):
    pair = random_pair(dom, np.random.default_rng(7))
    triple = nf.reduce_pair(params, dom, pair)
    rep = nf.project(params, dom, pair)
    assert psi_prime(triple, params, rep.t1) > 0
    assert psi_prime(triple, params, rep.t2) < 0


def test_no_nzero_under_discrete_lambda1(dom12):
    """Below the discrete smallness threshold the degenerate set stays empty."""
    params0 = nf.ModelParams(n=2, p=2.0, s=0.4, q=1.8, alpha=5 / 3, beta=5 / 3)
    s_d, _ = nf.compute_S(dom12, params0, seed=0, restarts=3)
    lam1 = nf.lambda1(params0, s_d, dom12.volume)
    sigma = 0.5 * lam1
    lam = (sigma / 2.0) ** ((params0.p - params0.q) / params0.p)
    params = params0.with_weights(lam, lam)
    rng = np.random.default_rng(8)
    for _ in range(40):
        pair = random_pair(dom12, rng)
        rep = nf.project(params, dom12, pair)
        assert rep.outcome == TWO_ROOTS
        for t in (rep.t1, rep.t2):
            assert classify_triple(nf.reduce_pair(params, dom12, scale_pair(pair, t)), params) != NZERO


# ---------------------------------------------------------------------------
# Second-derivative forms and the implicit map
# ---------------------------------------------------------------------------

def test_phi_second_forms_agree_symbolically():
    # with P = B + D the four forms coincide identically
    t = ReducedTriple(0.7, 0.3, 0.4)
    exprs = phi_second_expressions(t, TOY)
    assert max(exprs) - min(exprs) <= 1e-15 * sum(abs(e) for e in exprs)


def test_phi_second_consistency_after_projection(params, dom):
    pair = random_pair(dom, np.random.default_rng(9))
    rep = nf.project(params, dom, pair)
    for t in (rep.t1, rep.t2):
        assert phi_second_consistency(params, dom, scale_pair(pair, t)) <= 1e-10


def test_phi_second_consistency_rejects_off_manifold(params, dom):
    pair = random_pair(dom, np.random.default_rng(10))
    rep = nf.project(params, dom, pair)
    off = scale_pair(pair, rep.t1 * 1.05)
    with pytest.raises(NehariFracError, match="off the manifold"):
        phi_second_consistency(params, dom, off)


def test_xi_prime_zero_direction(params, dom):
    pair = random_pair(dom, np.random.default_rng(11))
    rep = nf.project(params, dom, pair)
    z = scale_pair(pair, rep.t2)
    zero = nf.Field(np.zeros(dom.n_interior))
    assert xi_prime(params, dom, z, nf.FieldPair(zero, zero)) == 0.0


def test_xi_prime_along_state_is_one(params, dom):
    # xi(eps z) (z - eps z) stays on the manifold iff xi = 1/(1-eps)
    pair = random_pair(dom, np.random.default_rng(12))
    rep = nf.project(params, dom, pair)
    for t in (rep.t1, rep.t2):
        z = scale_pair(pair, t)
        assert xi_prime(params, dom, z, z) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("branch_root", ["t1", "t2"])
def test_xi_prime_matches_reprojection_derivative(params, dom, branch_root):
    # balanced weights keep both roots O(1); the direction is scaled relative
    # to the state so the finite-difference probe stays in the local regime
    rng = np.random.default_rng(13)
    raw = random_pair(dom, rng)
    bp = balanced_params(params, dom, raw)
    rep = nf.project(bp, dom, raw)
    z = scale_pair(raw, getattr(rep, branch_root))
    amp = 0.01 * max(np.max(np.abs(z.u.values)), np.max(np.abs(z.v.values)))
    omega = nf.FieldPair(
        nf.Field(amp * rng.standard_normal(dom.n_interior)),
        nf.Field(amp * rng.standard_normal(dom.n_interior)),
    )
    value = xi_prime(bp, dom, z, omega)

    def scale_of(eps):
        shifted = nf.FieldPair(
            nf.Field(z.u.values - eps * omega.u.values),
            nf.Field(z.v.values - eps * omega.v.values),
        )
        r = nf.project(bp, dom, shifted)
        return r.t1 if branch_root == "t1" else r.t2

    e = 1e-4
    fd = (scale_of(e) - scale_of(-e)) / (2 * e)
    assert abs(value - fd) <= 1e-4 * max(abs(fd), 1e-12)


def test_xi_prime_requires_manifold_membership(params, dom):
    pair = random_pair(dom, np.random.default_rng(14))
    with pytest.raises(NehariFracError, match="on-manifold"):
        xi_prime(params, dom, pair, pair)


def test_xi_prime_degenerate_denominator(params, dom):
    # engineered triple with (p-q) P = (a+b-q) D is N0-degenerate; build a pair
    # state on the manifold near that balance by scaling a projected pair is
    # hard, so call the guard directly through a crafted off-balance check
    pair = random_pair(dom, np.random.default_rng(15))
    rep = nf.project(params, dom, pair)
    z = scale_pair(pair, rep.t2)
    with pytest.raises(DegenerateDirectionError):
        xi_prime(params, dom, z, z, denom_floor=1e12)


# ---------------------------------------------------------------------------
# Curve sampling
# ---------------------------------------------------------------------------

def test_sample_curves_monotone_and_shapes():
    t = toy_triple(P=1.1, B=0.2, D=0.12)
    rep = project_triple(t, TOY)
    rows = sample_curves(t, TOY, rep.t1 / 10.0, rep.t2 * 3.0, 3000)
    ts = np.array([r[0] for r in rows])
    assert np.all(np.diff(ts) > 0)
    phi_prime_vals = np.array([r[2] for r in rows])
    assert np.count_nonzero(np.diff(np.sign(phi_prime_vals))) == 2
    psi_vals = np.array([r[4] for r in rows])
    k = int(np.argmax(psi_vals))
    assert ts[max(k - 1, 0)] <= rep.t_max <= ts[min(k + 1, len(ts) - 1)]


def test_sample_curves_validation():
    t = toy_triple()
    with pytest.raises(ValueError):
        sample_curves(t, TOY, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        sample_curves(t, TOY, 1.0, 2.0, 1)
