import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nehari_frac as nf
from nehari_frac.bubbles import _richardson_limit, bubble_value, make_bubble, q_regime_label
from nehari_frac.errors import SupportError

from conftest import DESK, decay_check, h_expanded, t_star_by_search, truncation

CRIT = nf.ModelParams(**DESK)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_model_profile_values():
    assert nf.model_profile(CRIT, 0.0) == 1.0
    half = nf.ModelParams(n=2, p=2.0, s=0.5, q=1.5, alpha=2.0, beta=2.0)
    assert nf.model_profile(half, 1.0) == pytest.approx(2.0 ** -0.5, rel=1e-15)
    r = np.linspace(0.0, 30.0, 400)
    vals = nf.model_profile(CRIT, r)
    assert np.all(np.diff(vals) < 0)


def test_rescale_values():
    assert nf.rescale(CRIT, 1.0, 2.2) == pytest.approx(nf.model_profile(CRIT, 2.2), rel=1e-15)
    decay = (CRIT.n - CRIT.p * CRIT.s) / CRIT.p
    eps = 0.07
    assert nf.rescale(CRIT, eps, 0.0) == pytest.approx(eps ** -decay, rel=1e-14)
    with pytest.raises(ValueError):
        nf.rescale(CRIT, -0.1, 1.0)


def test_rescale_lpstar_mass_eps_invariant():
    # continuum L^{p*} mass of U_eps does not depend on eps
    from nehari_frac.radial_quad import lr_power_quad
    vals = []
    for eps in (1.0, 0.25):
        func = lambda r: nf.rescale(CRIT, eps, r)
        vals.append(lr_power_quad(CRIT, func, 600.0 * eps, CRIT.p_star, eps, per_decade=24))
    assert vals[0] == pytest.approx(vals[1], rel=1e-6)


# ---------------------------------------------------------------------------
# Truncation pipeline
# ---------------------------------------------------------------------------

def test_truncation_piecewise_values():
    eps, delta, theta = 0.05, 0.25, 2.0
    bub = make_bubble(CRIT, eps, delta, theta)
    hi, lo, m = bub.u_at_delta, bub.u_at_theta_delta, bub.m_eps_delta
    assert m > 1.0
    g, G = truncation(CRIT, eps, delta, theta, hi)
    assert G == pytest.approx(hi, rel=1e-14)          # continuity at the inner level
    g, G = truncation(CRIT, eps, delta, theta, lo)
    assert G == 0.0
    mid = 0.5 * (lo + hi)
    g, G = truncation(CRIT, eps, delta, theta, mid)
    assert G == pytest.approx(m * (mid - lo), rel=1e-14)
    assert g == pytest.approx(m ** CRIT.p * (mid - lo), rel=1e-14)
    top = 2.0 * hi
    g, G = truncation(CRIT, eps, delta, theta, top)
    assert G == top
    assert g == pytest.approx(top + hi * (m ** (CRIT.p - 1.0) - 1.0), rel=1e-14)


def test_truncation_validation():
    with pytest.raises(ValueError):
        truncation(CRIT, 0.05, -1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        truncation(CRIT, 0.05, 0.25, 1.0, 0.5)
    with pytest.raises(ValueError):
        truncation(CRIT, 0.05, 0.25, 2.0, -0.5)
    with pytest.raises(ValueError):
        make_bubble(CRIT, 0.2, 0.25, 2.0)  # eps > delta/2


@settings(deadline=None, max_examples=40)
@given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
def test_truncation_maps_nondecreasing(t1, t2):
    lo, hi = sorted((t1, t2))
    g_lo, G_lo = truncation(CRIT, 0.05, 0.25, 2.0, lo)
    g_hi, G_hi = truncation(CRIT, 0.05, 0.25, 2.0, hi)
    assert g_hi >= g_lo - 1e-12
    assert G_hi >= G_lo - 1e-12
    # G is 1-Lipschitz above the inner level
    bub = make_bubble(CRIT, 0.05, 0.25, 2.0)
    if lo >= bub.u_at_delta:
        assert G_hi - G_lo == pytest.approx(hi - lo, abs=1e-12)


def test_bubble_field_node_cases(dom12):
    eps, delta, theta = 0.0625, 0.25, 2.0
    center = np.array([0.5, 0.5])  # the bubble sits at the centre of the unit box
    field = nf.bubble_field(dom12, CRIT, eps, delta, theta)
    r = np.linalg.norm(dom12.interior - center, axis=1)
    outside = r >= theta * delta
    assert np.all(field.values[outside] == 0.0)
    inside = r <= delta
    expected = nf.rescale(CRIT, eps, r[inside])
    assert np.allclose(field.values[inside], expected, rtol=1e-14)
    # radial monotonicity on sorted shells
    order = np.argsort(r)
    diffs = np.diff(field.values[order])
    assert np.all(diffs <= 1e-12)


def test_bubble_field_support_check(dom12):
    with pytest.raises(SupportError, match="does not fit"):
        nf.bubble_field(dom12, CRIT, 0.05, 0.3, 2.0)  # radius 0.6 > clearance 0.5
    # the inscribed case (radius exactly the clearance) is allowed
    nf.bubble_field(dom12, CRIT, 0.0625, 0.25, 2.0)


def test_bubble_field_that_misses_every_node():
    # m = 6: the nodes nearest the centre lie 0.101 from it, beyond theta * delta = 0.02
    dom = nf.build_grid(2, 6, 1.0, 1.0, CRIT)
    with pytest.raises(SupportError, match=r"eps = 0.005 is zero on every interior node: .* theta\*delta = 0.02 "
                                           r"does not reach the nearest node, 0.101015 from the centre"):
        nf.bubble_field(dom, CRIT, 0.005, 0.01, 2.0)


def test_bubble_matches_piecewise_identity():
    bub = make_bubble(CRIT, 0.03, 0.2, 2.0)
    r = np.linspace(0.0, 0.5, 500)
    vals = bubble_value(bub, r)
    t = nf.rescale(CRIT, 0.03, r)
    _, G = truncation(CRIT, 0.03, 0.2, 2.0, t)
    assert np.allclose(vals, G, rtol=0, atol=0)  # same arithmetic path


# ---------------------------------------------------------------------------
# Decay diagnostics
# ---------------------------------------------------------------------------

def test_decay_check_model_profile():
    grid = np.geomspace(2.0, 500.0, 80)
    rep = decay_check(CRIT, grid, 2.0)
    assert rep.c1_hat <= rep.c2_hat
    assert rep.c2_hat <= 1.0 + 1e-12          # envelope tends to 1 from below
    assert rep.c1_hat > 0.85                   # already near the limit at r >= 2
    assert rep.halving_ok
    # the asymptotic halving ratio is 2^((p-1)/(n-ps))
    assert rep.theta_min is not None
    assert rep.theta_min <= 2.0
    assert rep.theta_min >= 2.0 ** ((CRIT.p - 1) / (CRIT.n - CRIT.p * CRIT.s)) - 0.05


def test_decay_check_requires_radii_above_one():
    with pytest.raises(ValueError):
        decay_check(CRIT, np.array([0.5, 2.0]), 2.0)


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def test_richardson_limit_on_synthetic_power_law():
    x = np.array([1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64], dtype=float)
    vals = 5.0 + 3.0 * x ** 1.2
    ref = _richardson_limit(vals, increasing=False)
    assert ref == pytest.approx(5.0, rel=1e-3)
    vals_up = 5.0 - 3.0 * x ** 2.0
    ref_up = _richardson_limit(vals_up, increasing=True)
    assert ref_up == pytest.approx(5.0, rel=1e-4)
    assert _richardson_limit(np.array([1.0, 1.0, 1.0]), increasing=True) is None


def test_norm_scan_validation(dom12):
    with pytest.raises(ValueError, match="eps"):
        nf.norm_estimate_scan(dom12, CRIT, 0.25, 2.0, [0.2], s_ref=8.8)
    with pytest.raises(ValueError):
        nf.norm_estimate_scan(dom12, CRIT, 0.25, 2.0, [], s_ref=8.8)
    with pytest.raises(ValueError, match="method"):
        nf.norm_estimate_scan(dom12, CRIT, 0.25, 2.0, [0.0625], s_ref=8.8, method="exact")


def test_norm_scan_lattice_rows(dom12):
    delta = 0.25
    eps_list = [delta / 4, delta / 8]
    res = nf.norm_estimate_scan(dom12, CRIT, delta, 2.0, eps_list, s_ref=8.83, method="lattice")
    assert res.method == "lattice"
    assert [r.eps for r in res.rows] == sorted(eps_list, reverse=True)
    for r in res.rows:
        assert r.seminorm_p_pow > 0 and r.lpstar_pow > 0
        assert r.excess == r.seminorm_p_pow - res.sem_reference
        assert r.deficit == res.lp_reference - r.lpstar_pow
    assert res.sem_reference == pytest.approx(8.83 ** (CRIT.n / (CRIT.p * CRIT.s)))


def test_norm_scan_quadrature_trends(dom12):
    delta = 0.25
    eps_list = [delta / 4, delta / 8, delta / 16, delta / 32]
    res = nf.norm_estimate_scan(dom12, CRIT, delta, 2.0, eps_list, s_ref=8.83, method="quadrature")
    # monotone residuals: both shrink as eps decreases
    ex = [r.excess for r in res.rows]
    de = [r.deficit for r in res.rows]
    assert all(a > b > 0 for a, b in zip(ex, ex[1:]))
    assert all(a > b > 0 for a, b in zip(de, de[1:]))
    assert abs(res.excess_slope - res.excess_slope_predicted) <= 0.3 * res.excess_slope_predicted
    assert abs(res.deficit_slope - res.deficit_slope_predicted) <= 0.3 * res.deficit_slope_predicted


def limits(dom, lam, s_d, s_ab):
    """The thresholds record of the sup scan at lambda = mu = lam."""
    return nf.thresholds(CRIT.with_weights(lam, lam), dom.volume, s_d, s_ab)


def test_sup_scan_rows(dom12):
    delta = 0.25
    eps_list = [delta / 4, delta / 8]
    rows = nf.sup_energy_scan(dom12, CRIT, delta, 2.0, eps_list, limits(dom12, 6.0, 8.8347, 17.6693))
    assert [r.eps for r in rows] == sorted(eps_list, reverse=True)
    for r in rows:
        # closed-form maximizer against the golden-refined grid search
        assert abs(r.t_star - t_star_by_search(dom12, CRIT, delta, 2.0, r.eps)) <= 1e-6 * r.t_star
        assert r.q_regime.startswith("supercritical-q")
        assert r.sup_full <= r.h_at_tstar + 1e-12
        # two-route expansion agrees in the critical case
        assert h_expanded(dom12, CRIT, delta, 2.0, r.eps) == pytest.approx(r.h_at_tstar, rel=1e-10)


def test_sup_scan_zero_weights_equals_coupling_part(dom12):
    delta = 0.25
    rows = nf.sup_energy_scan(dom12, CRIT, delta, 2.0, [delta / 4], limits(dom12, 0.0, 8.8347, 17.6693))
    assert rows[0].sup_full == pytest.approx(rows[0].h_at_tstar, rel=1e-14)


def test_sup_scan_below_c_infty_for_moderate_weights(dom12):
    # the concave gain beats the bubble's lattice excess once the weights are
    # large enough while still inside the smallness window (see acceptance)
    delta = 0.25
    eps_list = [delta / 4, delta / 8, delta / 16, delta / 32]
    s_d, _, s_ab, _ = nf.compute_S_coupled(dom12, CRIT, seed=0, restarts=4)
    rows = nf.sup_energy_scan(dom12, CRIT, delta, 2.0, eps_list, limits(dom12, 6.0, s_d, s_ab))
    assert any(r.below_c_infty for r in rows)
    assert all(r.sup_full < r.c_infty or not r.below_c_infty for r in rows)


def test_q_regime_labels():
    assert q_regime_label(CRIT).startswith("supercritical-q branch eps^0.92")
    low_q = nf.ModelParams(n=2, p=2.0, s=0.4, q=1.5, alpha=5 / 3, beta=5 / 3)
    assert q_regime_label(low_q).startswith("subcritical-q")
    at = nf.ModelParams(n=2, p=2.0, s=0.4, q=5 / 3, alpha=5 / 3, beta=5 / 3)
    assert "log" in q_regime_label(at)


def test_stationarity_of_t_star(dom12):
    delta = 0.25
    rows = nf.sup_energy_scan(dom12, CRIT, delta, 2.0, [delta / 4], limits(dom12, 1.0, 8.8347, 17.6693))
    r = rows[0]
    p, ab = CRIT.p, CRIT.ab
    # recover the ray coefficients from the row: h(t*) = (1/p - 1/ab) P0 t*^p
    # and D0 = P0 t*^(p - ab) at the stationary point
    P0 = r.h_at_tstar / ((1.0 / p - 1.0 / ab) * r.t_star ** p)
    D0 = P0 * r.t_star ** (p - ab)

    def h(t):
        return (t ** p / p) * P0 - (t ** ab / ab) * D0

    e = 1e-6 * r.t_star
    deriv = (h(r.t_star + e) - h(r.t_star - e)) / (2 * e)
    assert abs(deriv) <= 1e-8 * abs(r.h_at_tstar) / r.t_star


def test_rescale_lattice_lpstar_roughly_eps_invariant():
    """On a fine enough grid the lattice L^{p*} norm of the rescaled profile
    barely moves with eps (two-grid / two-eps comparison)."""
    params = CRIT
    dom = nf.build_grid(2, 32, 1.0, 1.0, params)
    center = np.full(2, 0.5)
    r = np.linalg.norm(dom.interior - center, axis=1)
    vals = []
    for eps in (0.05, 0.08):
        u = nf.Field(np.asarray(nf.rescale(params, eps, r)))
        vals.append(nf.lr_norm(dom, u, params.p_star))
    assert vals[0] == pytest.approx(vals[1], rel=0.05)
