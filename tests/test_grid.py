import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nehari_frac as nf
from nehari_frac.constants import bump_field
from nehari_frac.energy import gradient_arrays, ray_triple, triple_gradients
from nehari_frac.errors import GridTooLargeError
from nehari_frac import grid
from nehari_frac.grid import plap_gradient, signed_pow

from conftest import DESK, pair_list, random_field


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


def test_grid_too_large(monkeypatch):
    # the budget bounds the weight slab build, which only p != 2 makes: the stored
    # slabs plus SLAB_TEMP_BYTES per weight of the largest slab.  At m = 10 one
    # 99 x 100 slab holds every pair (rows 0..98; row 99 has no pair above it).
    p = nf.ModelParams(n=2, p=3.0, s=0.1, q=2.5, alpha=30.0 / 17.0, beta=30.0 / 17.0)
    need = 99 * 100 * (8 + grid.SLAB_TEMP_BYTES)
    assert grid.slab_build_bytes(100) == need
    monkeypatch.setattr(grid, "PAIR_BUDGET_BYTES", need - 1)
    with pytest.raises(GridTooLargeError, match="grid too large"):
        nf.build_grid(2, 10, 1.0, 1.0, p)
    monkeypatch.setattr(grid, "PAIR_BUDGET_BYTES", need)
    dom = nf.build_grid(2, 10, 1.0, 1.0, p)
    assert dom.n_pairs == 100 * 99 // 2
    assert [(a, b, w.shape) for a, b, w in dom.slabs] == [(0, 99, (99, 100))]


def test_p2_grid_ignores_pair_cap(monkeypatch):
    p = nf.ModelParams(**DESK)
    monkeypatch.setattr(grid, "PAIR_BUDGET_BYTES", 0)
    dom = nf.build_grid(2, 40, 1.0, 1.0, p)
    assert dom.n_interior == 1600 and dom.n_pairs == 0
    assert dom.slabs is None and dom.kernel_hat is not None


def test_slab_build_peak_pinned():
    """tracemalloc peak of the p = 3, m = 40 grid build: the stored slabs
    (8.3 B per pair) plus one slab's temporaries, inside slab_build_bytes."""
    import tracemalloc

    p = nf.ModelParams(n=2, p=3.0, s=0.1, q=2.5, alpha=30.0 / 17.0, beta=30.0 / 17.0)
    n_pairs = 1600 * 1599 // 2
    tracemalloc.start()
    try:
        dom = nf.build_grid(2, 40, 1.0, 1.0, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(w.nbytes for _, _, w in dom.slabs)
    largest = max(w.size for _, _, w in dom.slabs)
    assert largest <= grid.SLAB_ELEMENTS
    assert stored <= 8.5 * n_pairs
    # grid build besides the slabs: coordinates, masks and the collar convolution
    assert peak <= grid.slab_build_bytes(1600) + 2_000_000
    assert peak <= 10.0 * n_pairs


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


# (n, m, slab cap, several slabs): cap None keeps SLAB_ELEMENTS; cap 8 makes
# slabs of one row wider than the cap
_SLAB_CASES = [
    (1, 9, None, False), (1, 300, None, True), (2, 9, None, False), (2, 20, None, True),
    (3, 4, None, False), (3, 8, None, True), (2, 9, 64, True), (3, 4, 8, True),
]


@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("n, m, cap, several", _SLAB_CASES)
@pytest.mark.parametrize("p_exp", [1.5, 3.0])
def test_slab_pass_against_pair_list(monkeypatch, p_exp, n, m, cap, several, shape):
    """For p != 2 plap_gradient loops over the weight slabs; the pair list
    sum is the oracle, also for exact ties (du = 0, u = 0) and the zero field."""
    if cap is not None:
        monkeypatch.setattr(grid, "SLAB_ELEMENTS", cap)
    params = nf.ModelParams(n=n, p=p_exp, s=0.3, q=1.2, alpha=2.0, beta=2.0)
    dom = nf.build_grid(n, m, 1.0, 1.0, params, shape=shape)
    assert (len(dom.slabs) > 1) == several
    assert dom.n_pairs == dom.n_interior * (dom.n_interior - 1) // 2
    pair_i, pair_j, pair_w = pair_list(dom)
    dense = np.zeros((dom.n_interior, dom.n_interior))
    for a, b, w in dom.slabs:
        dense[a:b, a:] = w
    assert np.array_equal(dense[pair_i, pair_j], pair_w)  # the same weights, bit for bit
    assert np.count_nonzero(dense) == dom.n_pairs
    rng = np.random.default_rng(31)
    ties = rng.integers(-1, 3, dom.n_interior).astype(float)
    for u in (random_field(dom, rng).values, ties, np.zeros(dom.n_interior)):
        flux = pair_w * signed_pow(u[pair_i] - u[pair_j], p_exp - 1.0)
        expected = np.bincount(pair_i, weights=flux, minlength=dom.n_interior)
        expected -= np.bincount(pair_j, weights=flux, minlength=dom.n_interior)
        expected += dom.collar_w * signed_pow(u, p_exp - 1.0)
        got = plap_gradient(dom, u)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def _full_fft_pass(dom, u):
    """The p = 2 pass without pruning: irfftn(rfftn(u zero-padded to the
    fft_side(m)^n lattice) * kernel_hat), the reference of the pruned pass."""
    m, n = dom.m, dom.dim
    block = np.zeros(m ** n)
    block[dom.box_index] = u
    field = np.zeros((grid.fft_side(m),) * n)
    field[(slice(m),) * n] = block.reshape((m,) * n)
    axes = tuple(range(n))
    conv = np.fft.irfftn(np.fft.rfftn(field, axes=axes) * dom.kernel_hat, s=field.shape, axes=axes)
    return dom.diag * u - conv[(slice(m),) * n].ravel()[dom.box_index]


def test_fft_side_is_the_smallest_7_smooth_side():
    assert [grid.fft_side(m) for m in (2, 11, 12, 13, 20, 113)] == [3, 21, 24, 25, 40, 225]


@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("n, m", [(1, 9), (1, 10), (2, 11), (2, 12), (2, 13), (3, 4), (3, 5)])
@pytest.mark.parametrize("p_exp", [1.5, 2.0, 3.0])
def test_stacked_pass_equals_row_passes_and_pair_list(monkeypatch, p_exp, n, m, shape):
    """plap_gradient of a (k, N) stack is each row's own pass, bit for bit, and
    the pair sum to 1e-12.  At p = 2 the stack is a pruned FFT on the
    fft_side(m) lattice, which is below 2m at m = 11 and 13 (L = 21, 25), in
    batches of 2 when FFT_BATCH_BYTES holds two spectra; each row is bit for
    bit the unpruned rfftn/irfftn pass."""
    params = nf.ModelParams(n=n, p=p_exp, s=0.3, q=1.2, alpha=2.0, beta=2.0)
    dom = nf.build_grid(n, m, 1.0, 1.0, params, shape=shape)
    rng = np.random.default_rng(37)
    stack = np.stack([random_field(dom, rng).values for _ in range(5)] + [bump_field(dom), np.zeros(dom.n_interior)])
    got = plap_gradient(dom, stack)
    assert got.shape == stack.shape
    if dom.kernel_hat is not None:
        monkeypatch.setattr(grid, "FFT_BATCH_BYTES", 2 * dom.kernel_hat.nbytes)
        assert np.array_equal(plap_gradient(dom, stack), got)
    pair_i, pair_j, pair_w = pair_list(dom)
    for u, g in zip(stack, got):
        assert np.array_equal(g, plap_gradient(dom, u))
        if dom.kernel_hat is not None:
            assert np.array_equal(g, _full_fft_pass(dom, u))
        flux = pair_w * signed_pow(u[pair_i] - u[pair_j], p_exp - 1.0)
        expected = np.bincount(pair_i, weights=flux, minlength=dom.n_interior)
        expected -= np.bincount(pair_j, weights=flux, minlength=dom.n_interior)
        expected += dom.collar_w * signed_pow(u, p_exp - 1.0)
        assert np.max(np.abs(g - expected)) <= 1e-12 * np.max(np.abs(expected))


# signed zeros, exact ties, huge, tiny, subnormal and overflowing values of both signs
_ADVERSARIAL = np.array([0.0, -0.0, 1.0, -1.0, 3.0, 3.0, 0.1, 1.0 / 3.0, 1.0 + 2.0 ** -52, 1e300, -1e300,
                         1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.5e308, -1.5e308])


@pytest.mark.parametrize("cap", [None, 8])
def test_factor_product_is_the_slab_difference(monkeypatch, cap):
    """The rounding property of numpy's matmul that the pass relies on: the
    rank-2 product [x, 1][a:b] @ [1; -x][:, a:] (two exact products, one
    rounding) equals x[a:b, None] - x[None, a:] in value everywhere and bit
    for bit wherever it is nonzero, overflow included, over the slab bounds
    of the default cut and of one-row slabs (cap 8).  The sign of a zero
    depends on the BLAS kernel and is left open here; that the pass does not
    depend on it is test_slab_pass_on_adversarial_rows."""
    if cap is not None:
        monkeypatch.setattr(grid, "SLAB_ELEMENTS", cap)
    n = 400
    bounds = grid._slab_bounds(n)
    assert (bounds[0] == (0, 1)) == (cap == 8) and len(bounds) > 1
    rng = np.random.default_rng(41)
    for x in [rng.choice(_ADVERSARIAL, n) for _ in range(4)] + [np.full(n, -0.0), np.repeat(_ADVERSARIAL, 22)[:n]]:
        left, right = np.ones((n, 2)), np.ones((2, n))
        left[:, 0], right[1] = x, -x
        for a, b in bounds:
            with np.errstate(over="ignore"):
                want = x[a:b, None] - x[None, a:]
                got = left[a:b] @ right[:, a:]
            assert np.array_equal(got, want)
            nonzero = want != 0
            assert np.array_equal(got[nonzero].view(np.int64), want[nonzero].view(np.int64))


@pytest.mark.parametrize("cap", [None, 8])
@pytest.mark.parametrize("p_exp", [1.5, 3.0])
def test_slab_pass_on_adversarial_rows(monkeypatch, p_exp, cap):
    """The pass on signed zeros, ties, subnormals and mixed scales: the sign
    of a zero changes no bit of the result, and the pair sum agrees to 1e-13."""
    if cap is not None:
        monkeypatch.setattr(grid, "SLAB_ELEMENTS", cap)
    params = nf.ModelParams(n=2, p=p_exp, s=0.3, q=1.2, alpha=2.0, beta=2.0)
    dom = nf.build_grid(2, 20, 1.0, 1.0, params)
    palette = _ADVERSARIAL[np.abs(_ADVERSARIAL) < 1e100]  # no overflow in |du|^(p-1) w
    rng = np.random.default_rng(43)
    stack = np.stack([rng.choice(palette, dom.n_interior) for _ in range(3)] + [np.full(dom.n_interior, -0.0)])
    got = plap_gradient(dom, stack)
    assert np.array_equal(got.view(np.int64), plap_gradient(dom, stack + 0.0).view(np.int64))  # -0 -> +0
    pair_i, pair_j, pair_w = pair_list(dom)
    for u, g in zip(stack, got):
        flux = pair_w * signed_pow(u[pair_i] - u[pair_j], p_exp - 1.0)
        expected = np.bincount(pair_i, weights=flux, minlength=dom.n_interior)
        expected -= np.bincount(pair_j, weights=flux, minlength=dom.n_interior)
        expected += dom.collar_w * signed_pow(u, p_exp - 1.0)
        assert np.max(np.abs(g - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_slab_pass_allocates_one_buffer_pair():
    """tracemalloc peak of a 12-row p = 3 pass at m = 20 (N = 400): the du and
    c slab buffers (16 B per weight of the largest slab) plus at most two
    (k, N) float64 stacks and sixteen float64 N-vectors; a slab-sized
    temporary per slab (32,767 weights, 262 kB) would break it."""
    import tracemalloc

    params = nf.ModelParams(n=2, p=3.0, s=0.1, q=2.5, alpha=30.0 / 17.0, beta=30.0 / 17.0)
    dom = nf.build_grid(2, 20, 1.0, 1.0, params)
    k, n = 12, dom.n_interior
    stack = np.random.default_rng(47).random((k, n))
    plap_gradient(dom, stack)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        plap_gradient(dom, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = max(w.size for _, _, w in dom.slabs)
    assert len(dom.slabs) > 1
    assert peak <= 16 * largest + 2 * 8 * k * n + 16 * 8 * n


def test_ball_shape_subset_of_box():
    p = nf.ModelParams(**DESK)
    box = nf.build_grid(2, 9, 1.0, 1.0, p)
    ball = nf.build_grid(2, 9, 1.0, 1.0, p, shape="ball")
    assert ball.n_interior < box.n_interior
    c = np.full(2, 0.5)
    assert np.all(np.linalg.norm(ball.interior - c, axis=1) < 0.5)


def _ball_count(m: int) -> int:
    """Lattice nodes 1 <= k_1, k_2 <= m strictly inside the inscribed disc,
    counted row by row with integer square roots: |2 k_2 - m - 1| <= t."""
    count = 0
    for k1 in range(1, m + 1):
        t = math.isqrt((m + 1) ** 2 - (2 * k1 - m - 1) ** 2 - 1)
        count += (m + 1 + t) // 2 - (m + 1 - t + 1) // 2 + 1
    return count


def test_membership_counts_are_exact():
    """Interior membership is decided on integer indices, so the count is m^2
    (box) or the integer disc count (ball) at every m and L.  Deciding it on
    the float coordinates k h, h = L / (m + 1), took in the node on x = L
    (box, L = 1: m = 48, 97, ...) or nodes on the circle (ball: m = 33, ...)."""
    for m in range(2, 401):
        for shape, want in (("box", m * m), ("ball", _ball_count(m))):
            k, inside = grid._lattice(m, 1, 2, shape)
            assert int(inside.sum()) == want, (m, shape)
            lo, hi = int(k[inside].min()), int(k[inside].max())
            for length in (1.0, 0.1, 2.7):
                h = length / (m + 1)
                assert lo * h > 0.0 and hi * h < length, (m, shape, length)
    assert _ball_count(33) == 889


@pytest.mark.parametrize("n, m, p_exp, shape", [
    (2, 48, 2.0, "box"), (2, 97, 2.0, "box"), (2, 48, 3.0, "box"), (1, 97, 3.0, "box"),
    (2, 33, 2.0, "ball"), (2, 97, 2.0, "ball"), (2, 33, 3.0, "ball"),
])
def test_full_builds_where_float_membership_failed(n, m, p_exp, shape):
    """At L = 1 these m put a boundary node inside under the float test: the
    p = 2 build then failed in ravel_multi_index, and the p = 3 box at m = 48
    held 2,401 nodes instead of 2,304."""
    p = nf.ModelParams(n=n, p=p_exp, s=0.4 if p_exp == 2.0 else 0.1, q=1.8, alpha=2.0, beta=2.0)
    dom = nf.build_grid(n, m, 1.0, 1.0, p, shape=shape)
    assert dom.n_interior == (m ** n if shape == "box" else _ball_count(m))
    assert dom.interior.min() > 0.0 and dom.interior.max() < 1.0
    assert dom.interior.shape[0] + dom.collar.shape[0] == (m + 2 + 2 * (m + 1)) ** n
    ones = np.ones(dom.n_interior)
    assert np.allclose(plap_gradient(dom, ones), dom.collar_w, rtol=1e-12)


def test_seminorm_zero_and_single_node():
    p = nf.ModelParams(n=1, p=2.0, s=0.3, q=1.5, alpha=2.0, beta=2.0)
    dom = nf.build_grid(1, 2, 1.0, 1.0, p)
    assert nf.seminorm_p(dom, nf.Field(np.zeros(dom.n_interior))) == 0.0
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
    (w,), cw = pair_list(dom)[2], dom.collar_w
    # du = 3, |du|^(p-2) du = 9, dphi = -2; collar: sign(u)|u|^(p-1) phi
    expected = w * 9.0 * (-2.0)
    expected += cw[0] * 4.0 * 1.0 + cw[1] * (-1.0) * 3.0
    assert float(np.dot(phi, plap_gradient(dom, u))) == pytest.approx(expected, rel=1e-13)


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
    assert float(np.dot(u, plap_gradient(dom, u))) == pytest.approx(nf.seminorm_p(dom, u) ** p.p, rel=1e-12)


@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("p_exp", [1.5, 2.0, 3.0])
def test_kernel_against_brute_force_pair_sum(p_exp, shape):
    """seminorm_p, the form A(u, phi) = phi . plap_gradient(u) and plap_gradient
    against a double sum over every sampled node, interior and collar, with
    the fields extended by zero."""
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
    assert float(np.dot(phi, plap_gradient(dom, u))) == pytest.approx(0.5 * np.sum(flux * (Phi[:, None] - Phi[None, :])), rel=1e-12)
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
    expected = abs(t) ** (p.p - 2) * t * float(np.dot(phi, plap_gradient(dom, u)))
    assert float(np.dot(phi, plap_gradient(dom, t * u))) == pytest.approx(expected, rel=1e-12)


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
    assert math.isfinite(float(np.dot(phi.values, plap_gradient(dom, u.values))))
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
    zero = nf.Field(np.zeros(dom.n_interior))
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


def test_cell_is_the_node_volume(dom, dom1d):
    """GridDomain.cell is h^dim and volume is cell * N; describe() and with it
    the domain hash carry neither."""
    for d in (dom, dom1d[1]):
        assert d.cell == d.h ** d.dim
        assert d.volume == d.cell * d.n_interior
        assert not {"cell", "volume"} & set(d.describe())


def test_only_grid_raises_h_to_a_power():
    """The lattice measure has one owner: no src module but grid.py forms a
    power of the spacing h (the node cell is GridDomain.cell)."""
    offenders = []
    for path in sorted(Path(nf.__file__).parent.glob("*.py")):
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                base = node.left
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("power", "float_power") and node.args:
                base = node.args[0]
            else:
                continue
            if getattr(base, "id", None) == "h" or getattr(base, "attr", None) == "h":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
