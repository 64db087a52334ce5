import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nehari_frac as nf
from nehari_frac.constants import bump_field
from nehari_frac.energy import gradient_arrays, ray_triple, triple_gradients
from nehari_frac.errors import GridTooLargeError
from nehari_frac.grid import pair_list, plap_gradient, signed_pow

from conftest import DESK, random_field


def test_1d_two_node_weight():
    # adjacent interior pair at distance h: w = h^2 / h^(1+ps) = h^(1-ps)
    p = nf.ModelParams(n=1, p=2.0, s=0.3, q=1.5, alpha=2.0, beta=2.0)
    dom = nf.build_grid(1, 2, 1.0, 1.0, p)
    assert dom.n_interior == 2
    h = 1.0 / 3.0
    assert dom.h == pytest.approx(h)
    _, _, pair_w = pair_list(dom)
    assert pair_w.shape[0] == 1
    assert pair_w[0] == pytest.approx(h ** (1.0 - 0.6), rel=1e-14)
    # collar spans distance 1 on both sides of the box
    assert dom.collar.min() == pytest.approx(-1.0)
    assert dom.collar.max() == pytest.approx(2.0)


def test_2d_counts_and_volume():
    p = nf.ModelParams(**DESK)
    dom = nf.build_grid(2, 4, 1.0, 1.0, p)
    assert dom.n_interior == 16
    assert dom.volume == pytest.approx(16 * dom.h ** 2, rel=1e-15)


def test_1d_kernel_exponent_example():
    # n=1, s=0.4, p=2: adjacent weight h^(2-(1+0.8)) = h^0.2
    p = nf.ModelParams(n=1, p=2.0, s=0.4, q=1.5, alpha=2.0, beta=2.0)
    dom = nf.build_grid(1, 3, 1.0, 1.0, p)
    h = 0.25
    pair_i, pair_j, pair_w = pair_list(dom)
    adjacent = pair_w[np.isclose(
        np.abs(dom.interior[pair_i, 0] - dom.interior[pair_j, 0]), h)]
    assert np.allclose(adjacent, h ** 0.2, rtol=1e-14)


def test_pairs_are_unordered_and_positive():
    p = nf.ModelParams(**DESK)
    dom = nf.build_grid(2, 5, 1.0, 1.0, p)
    pair_i, pair_j, pair_w = pair_list(dom)
    assert np.all(pair_i < pair_j)  # stored once, no self-pairs
    assert np.all(pair_w > 0)
    keys = pair_i.astype(np.int64) * dom.n_interior + pair_j
    assert len(np.unique(keys)) == pair_w.shape[0]


def test_grid_too_large():
    # max_pairs caps the pair list, which only p != 2 builds
    p = nf.ModelParams(n=2, p=3.0, s=0.1, q=2.5, alpha=30.0 / 17.0, beta=30.0 / 17.0)
    with pytest.raises(GridTooLargeError, match="grid too large"):
        nf.build_grid(2, 40, 1.0, 1.0, p, max_pairs=1000)


def test_p2_grid_ignores_pair_cap():
    p = nf.ModelParams(**DESK)
    dom = nf.build_grid(2, 40, 1.0, 1.0, p, max_pairs=1000)
    assert dom.n_interior == 1600 and dom.n_pairs == 0
    assert dom.pair_i is None and dom.pair_j is None and dom.pair_w is None


def _collar_weights_loop(interior, collar, kernel_exp, h, dim, chunk=4_000_000):
    """Aggregated kernel weight from each interior node into the whole collar,
    by blocks of explicit distances: the loop the lattice convolution
    replaced, kept as the reference."""
    n = interior.shape[0]
    out = np.zeros(n)
    if collar.shape[0] == 0:
        return out
    rows = max(1, chunk // collar.shape[0])
    scale = h ** (2 * dim)
    for start in range(0, n, rows):
        block = interior[start:start + rows]
        d = np.linalg.norm(block[:, None, :] - collar[None, :, :], axis=2)
        out[start:start + rows] = scale * np.sum(d ** (-kernel_exp), axis=1)
    return out


# (n, m, collar_factor); every case runs in both shapes
_LATTICES = [(1, 9, 1.0), (1, 9, 2.0), (2, 9, 1.0), (2, 7, 2.0), (3, 4, 1.0), (3, 4, 2.0)]


@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("n, m, collar_factor", _LATTICES)
@pytest.mark.parametrize("p_exp", [1.5, 2.0, 3.0])
def test_collar_weights_against_distance_loop(p_exp, n, m, collar_factor, shape):
    params = nf.ModelParams(n=n, p=p_exp, s=0.3, q=1.2, alpha=2.0, beta=2.0)
    dom = nf.build_grid(n, m, 1.0, collar_factor, params, shape=shape)
    expected = _collar_weights_loop(dom.interior, dom.collar, n + p_exp * 0.3, dom.h, n)
    assert np.all(np.abs(dom.collar_w - expected) <= 1e-12 * expected)


@pytest.mark.parametrize("field", ["random", "bump"])
@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("n, m, collar_factor", _LATTICES)
def test_fft_kernel_pass_against_pair_list(n, m, collar_factor, shape, field):
    """At p = 2 plap_gradient is one FFT convolution; the pair list and the
    distance-loop collar weights give the same pass as explicit sums."""
    params = nf.ModelParams(n=n, p=2.0, s=0.3, q=1.2, alpha=2.0, beta=2.0)
    dom = nf.build_grid(n, m, 1.0, collar_factor, params, shape=shape)
    assert dom.n_pairs == 0
    if field == "random":
        u = random_field(dom, np.random.default_rng(29)).values
    else:
        u = bump_field(dom)
    pair_i, pair_j, pair_w = pair_list(dom)
    flux = pair_w * (u[pair_i] - u[pair_j])
    expected = np.bincount(pair_i, weights=flux, minlength=dom.n_interior)
    expected -= np.bincount(pair_j, weights=flux, minlength=dom.n_interior)
    expected += _collar_weights_loop(dom.interior, dom.collar, n + 0.6, dom.h, n) * u
    assert np.max(np.abs(plap_gradient(dom, u) - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_ball_shape_subset_of_box():
    p = nf.ModelParams(**DESK)
    box = nf.build_grid(2, 9, 1.0, 1.0, p)
    ball = nf.build_grid(2, 9, 1.0, 1.0, p, shape="ball")
    assert ball.n_interior < box.n_interior
    c = np.full(2, 0.5)
    assert np.all(np.linalg.norm(ball.interior - c, axis=1) < 0.5)


def test_seminorm_zero_and_single_node():
    p = nf.ModelParams(n=1, p=2.0, s=0.3, q=1.5, alpha=2.0, beta=2.0)
    dom = nf.build_grid(1, 2, 1.0, 1.0, p)
    assert nf.seminorm_p(dom, nf.Field.zeros(dom)) == 0.0
    # one interior node set to 1: the sum collapses to the pair weight plus
    # the aggregated collar weight of that node
    u = nf.Field(np.array([1.0, 0.0]))
    _, _, pair_w = pair_list(dom)
    expected = pair_w[0] + dom.collar_w[0]
    assert nf.seminorm_p(dom, u) == pytest.approx(expected ** 0.5, rel=1e-14)


def test_lr_norm_hand_value():
    p = nf.ModelParams(n=1, p=2.0, s=0.3, q=1.5, alpha=2.0, beta=2.0)
    dom = nf.build_grid(1, 2, 3.0, 1.0, p)  # h = 1
    assert dom.h == pytest.approx(1.0)
    assert nf.lr_norm(dom, nf.Field(np.array([3.0, 4.0])), 2.0) == pytest.approx(5.0, rel=1e-15)
    assert nf.lr_norm(dom, nf.Field(np.array([1.0, 1.0])), 3.0) == pytest.approx(2.0 ** (1 / 3), rel=1e-14)
    with pytest.raises(ValueError):
        nf.lr_norm(dom, nf.Field(np.array([1.0, 1.0])), 0.5)


def test_a_form_two_node_hand_value():
    p = nf.ModelParams(n=1, p=3.0, s=0.3, q=1.5, alpha=2.0, beta=2.0)
    dom = nf.build_grid(1, 2, 1.0, 1.0, p)
    u = np.array([2.0, -1.0])
    phi = np.array([1.0, 3.0])
    w = dom.pair_w[0]
    cw = dom.collar_w
    # du = 3, |du|^(p-2) du = 9, dphi = -2; collar: sign(u)|u|^(p-1) phi
    expected = w * 9.0 * (-2.0)
    expected += cw[0] * 4.0 * 1.0 + cw[1] * (-1.0) * 3.0
    assert nf.a_form(dom, nf.Field(u), nf.Field(phi)) == pytest.approx(expected, rel=1e-13)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000), st.floats(-5.0, 5.0).filter(lambda t: abs(t) > 1e-3))
def test_seminorm_homogeneity(seed, t):
    p = nf.ModelParams(**DESK)
    dom = nf.build_grid(2, 5, 1.0, 1.0, p)
    u = random_field(dom, np.random.default_rng(seed)).values
    left = nf.seminorm_p(dom, t * u)
    right = abs(t) * nf.seminorm_p(dom, u)
    assert left == pytest.approx(right, rel=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_seminorm_triangle(seed):
    p = nf.ModelParams(**DESK)
    dom = nf.build_grid(2, 5, 1.0, 1.0, p)
    rng = np.random.default_rng(seed)
    u = random_field(dom, rng).values
    v = random_field(dom, rng).values
    assert nf.seminorm_p(dom, u + v) <= nf.seminorm_p(dom, u) + nf.seminorm_p(dom, v) + 1e-12


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_a_form_matches_seminorm_power(seed):
    p = nf.ModelParams(**DESK)
    dom = nf.build_grid(2, 5, 1.0, 1.0, p)
    u = random_field(dom, np.random.default_rng(seed)).values
    assert nf.a_form(dom, u, u) == pytest.approx(nf.seminorm_p(dom, u) ** p.p, rel=1e-12)


@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("p_exp", [1.5, 2.0, 3.0])
def test_kernel_against_brute_force_pair_sum(p_exp, shape):
    """seminorm_p, a_form and plap_gradient against a double sum over every
    sampled node, interior and collar, with the fields extended by zero."""
    params = nf.ModelParams(n=2, p=p_exp, s=0.3, q=1.2, alpha=2.0, beta=2.0, lam=0.7, mu=0.4)
    dom = nf.build_grid(2, 5 if shape == "box" else 6, 1.0, 1.0, params, shape=shape)
    rng = np.random.default_rng(17)
    u = random_field(dom, rng).values
    phi = random_field(dom, rng).values
    n = dom.n_interior

    nodes = np.vstack([dom.interior, dom.collar])
    dist = np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    w = dom.h ** 4 / dist ** (2 + p_exp * 0.3)
    U = np.concatenate([u, np.zeros(dom.n_collar)])
    Phi = np.concatenate([phi, np.zeros(dom.n_collar)])
    dU = U[:, None] - U[None, :]
    flux = w * np.sign(dU) * np.abs(dU) ** (p_exp - 1.0)
    # each unordered pair appears twice in the full double sum
    assert nf.seminorm_p(dom, u) ** p_exp == pytest.approx(0.5 * np.sum(w * np.abs(dU) ** p_exp), rel=1e-12)
    assert nf.a_form(dom, u, phi) == pytest.approx(0.5 * np.sum(flux * (Phi[:, None] - Phi[None, :])), rel=1e-12)
    expected = np.sum(flux, axis=1)[:n]
    assert np.max(np.abs(plap_gradient(dom, u) - expected)) <= 1e-12 * np.max(np.abs(expected))

    # the kernels= route of the ray reduction and the gradient, also rescaled
    a, b = np.abs(u), np.abs(phi)
    kernels = (plap_gradient(dom, a), plap_gradient(dom, b))
    assert ray_triple(params, dom, a, b, kernels=kernels) == ray_triple(params, dom, a, b)
    for t in (1.0, 0.37, 2.9):
        tp = t ** (p_exp - 1.0)
        scaled = gradient_arrays(params, dom, t * a, t * b, kernels=(tp * kernels[0], tp * kernels[1]))
        direct = gradient_arrays(params, dom, t * a, t * b)
        for g_scaled, g_direct, k in zip(scaled, direct, kernels):
            assert np.max(np.abs(g_scaled - g_direct)) <= 1e-12 * tp * np.max(np.abs(k))
        scaled = triple_gradients(params, dom, t * a, t * b, kernels=(tp * kernels[0], tp * kernels[1]))
        direct = triple_gradients(params, dom, t * a, t * b)
        k_max = max(np.max(np.abs(k)) for k in kernels)
        for g_scaled, g_direct in zip(scaled, direct):
            assert np.max(np.abs(g_scaled - g_direct)) <= 1e-12 * p_exp * tp * k_max


def test_a_form_homogeneity_in_first_argument():
    p = nf.ModelParams(n=2, p=3.0, s=0.3, q=1.5, alpha=2.0, beta=2.0)
    dom = nf.build_grid(2, 4, 1.0, 1.0, p)
    rng = np.random.default_rng(3)
    u = random_field(dom, rng).values
    phi = random_field(dom, rng).values
    t = -2.3
    expected = abs(t) ** (p.p - 2) * t * nf.a_form(dom, u, phi)
    assert nf.a_form(dom, t * u, phi) == pytest.approx(expected, rel=1e-12)


def test_zero_extension_monotonicity():
    # widening the collar only adds nonnegative pair terms
    p = nf.ModelParams(**DESK)
    rng = np.random.default_rng(11)
    narrow = nf.build_grid(2, 5, 1.0, 1.0, p)
    wide = nf.build_grid(2, 5, 1.0, 2.0, p)
    u = random_field(narrow, rng).values
    assert nf.seminorm_p(wide, u) >= nf.seminorm_p(narrow, u)
    assert np.all(wide.collar_w >= narrow.collar_w)


def test_small_p_no_nan():
    p = nf.ModelParams(n=1, p=1.5, s=0.3, q=1.2, alpha=2.0, beta=2.0)
    dom = nf.build_grid(1, 4, 1.0, 1.0, p)
    u = nf.Field(np.array([1.0, 1.0, 0.0, -2.0]))  # equal neighbors: du = 0
    phi = nf.Field(np.ones(4))
    assert math.isfinite(nf.a_form(dom, u, phi))
    assert math.isfinite(nf.seminorm_p(dom, u))
    assert np.all(np.isfinite(plap_gradient(dom, u.values)))


def test_signed_pow_at_zero():
    assert signed_pow(0.0, 0.5) == 0.0
    assert signed_pow(-2.0, 1.0) == -2.0
    out = signed_pow(np.array([-1.0, 0.0, 4.0]), 0.8)
    assert out[1] == 0.0 and out[0] == -1.0 and out[2] == pytest.approx(4.0 ** 0.8)


def test_pair_norm_identities(dom, params):
    rng = np.random.default_rng(5)
    u = random_field(dom, rng)
    zero = nf.Field.zeros(dom)
    assert nf.pair_norm(dom, nf.FieldPair(u, zero)) == pytest.approx(nf.seminorm_p(dom, u), rel=1e-14)
    both = nf.FieldPair(u, u)
    assert nf.pair_norm(dom, both) == pytest.approx(2 ** (1 / params.p) * nf.seminorm_p(dom, u), rel=1e-13)
    t = -1.7
    scaled = nf.FieldPair(nf.Field(t * u.values), nf.Field(t * u.values))
    assert nf.pair_norm(dom, scaled) == pytest.approx(abs(t) * nf.pair_norm(dom, both), rel=1e-13)


def test_field_validation(dom):
    with pytest.raises(ValueError):
        nf.Field(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        nf.seminorm_p(dom, nf.Field(np.zeros(dom.n_interior + 1)))
    with pytest.raises(ValueError):
        nf.FieldPair(nf.Field(np.zeros(3)), nf.Field(np.zeros(4)))
