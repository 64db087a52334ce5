"""Resolved radial quadrature for norms of radial profiles (n = 1, 2, 3).

Lattice sums cannot resolve a truncated-profile core once its scale drops
below the grid spacing, so the asymptotic scans may evaluate the continuum
integrals directly.  For a radial function the Gagliardo double integral
reduces to a planar (r, rho) integral against the angular kernel

    Phi(r, rho) = integral over the unit sphere of |r e - rho w|^(-(n+ps)),

which is elementary for n = 1 and n = 3 and, for n = 2, the Gauss
hypergeometric value F(nu, 1/2; 1; 1 - e) with nu = (2 + ps)/2 and the exact
squared relative gap e = ((r - rho)/(r + rho))^2, by numpy alone: its Gauss
series in 1 - e for e > 1/2, the two series of the connection formula DLMF
15.8.4 for e <= 1/2, and 2 E(1 - e)/(pi e) with E from the AGM at ps = 1,
where those series have a pole.  Phi is homogeneous of degree -(n + ps) and
the planar integrand is symmetric in (r, rho), so the interior is two sweeps
below the diagonal, rho = r t, that read one unit kernel row Phi(1, t) over
their joint rule for every outer node; no kernel is evaluated per point
above the diagonal.
The sweeps are assembled over blocks of outer nodes sized by
grid.SLAB_ELEMENTS, so their temporaries stay in cache and the peak memory
does not grow with the outer grid.  Values count each unordered point pair
once (half the ordered double integral).
"""
from __future__ import annotations

import math

import numpy as np

from . import grid
from .params import ModelParams

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_SERIES_TERMS = 50  # per Gauss series, each at |z| <= 1/2
GAGLIARDO_PER_DECADE = 12  # gagliardo_pow_quad: outer panels per decade of r
GAP_PER_DECADE = 6         # gagliardo_pow_quad: panels per decade of its one-ended unit rule
# gagliardo_pow_quad: panels per decade of its two-ended unit rule, the fewest at which that sweep
# of the desk bubble (delta = 0.25, theta = 2) lies within 1e-6 of a 4x-refined rule at every eps
# from delta/4 to delta/128 (8: 6.3e-7 at delta/4 down to 6.7e-10; 6: 3.3e-6 at delta/4)
TWO_ENDED_PER_DECADE = 8
TAIL_FACTOR = 64.0         # gagliardo_pow_quad: explicit exterior tail up to this times the support


def sphere_surface(n: int) -> float:
    if n == 1:
        return 2.0
    if n == 2:
        return 2.0 * np.pi
    if n == 3:
        return 4.0 * np.pi
    raise ValueError("radial quadrature supports n in {1, 2, 3}")


def angular_kernel(n: int, ps: float, r, rho):
    """Phi(r, rho) for positive radii; vectorized, diagonal-safe."""
    r = np.asarray(r, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    if n == 1:
        return np.abs(r - rho) ** (-(1.0 + ps)) + (r + rho) ** (-(1.0 + ps))
    if n == 3:
        nu = (3.0 + ps) / 2.0
        a = np.abs(r - rho) ** (2.0 - 2.0 * nu)
        b = (r + rho) ** (2.0 - 2.0 * nu)
        return 2.0 * np.pi * (a - b) / (2.0 * r * rho * (nu - 1.0))
    if n != 2:
        raise ValueError("radial quadrature supports n in {1, 2, 3}")

    nu = (2.0 + ps) / 2.0
    e = np.broadcast_to(((r - rho) / (r + rho)) ** 2, np.broadcast(r, rho).shape)
    out = np.empty(e.shape)
    near = e <= 0.5
    out[~near] = _series(nu, 0.5, 1.0, 1.0 - e[~near])
    e = e[near]
    if abs(nu - 1.5) < 1e-9:
        # Euler's transformation; the band keeps a ps that rounds near 1 off
        # the series, whose terms cancel to an error of ~6e-17 / |nu - 3/2|
        out[near] = 2.0 * _ellipe_complement(e) / (np.pi * e)
    else:
        c1 = math.gamma(0.5 - nu) / (math.gamma(1.0 - nu) * math.gamma(0.5))
        c2 = math.gamma(nu - 0.5) / (math.gamma(nu) * math.gamma(0.5))
        out[near] = c1 * _series(nu, 0.5, nu + 0.5, e) + c2 * e ** (0.5 - nu) * _series(
            1.0 - nu, 0.5, 1.5 - nu, e
        )
    return 2.0 * np.pi * (r + rho) ** (-(2.0 + ps)) * out


def _series(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """F(a, b; c; z) to z^_SERIES_TERMS, Horner on precomputed (a)_k (b)_k / ((c)_k k!)."""
    coef = np.cumprod([1.0] + [(a + k) * (b + k) / ((c + k) * (k + 1.0)) for k in range(_SERIES_TERMS)])
    acc = np.full(z.shape, coef[-1])
    for t in coef[-2::-1]:
        acc *= z
        acc += t
    return acc


def _ellipe_complement(e: np.ndarray) -> np.ndarray:
    """E(1 - e) for 0 < e <= 1 by the AGM (DLMF 19.8.1, 19.8.6), from sqrt(e):
    1 - e, which rounds to 1 near the diagonal, is never formed."""
    a, b = np.ones_like(e), np.sqrt(e)
    total, weight = 0.5 * (1.0 + e), 0.5  # 1 - c_0^2 / 2 with c_0^2 = 1 - e
    for _ in range(40):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        weight *= 2.0
        total -= weight * c * c  # 2^(k-1) c_k^2
        if np.all(c <= 1e-8 * a):  # then a is the AGM to ~(c / a)^2 / 4
            break
    return np.pi / (2.0 * a) * total


def _panels(edges: np.ndarray):
    """Gauss-Legendre nodes and weights on the consecutive panels of edges."""
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    weights = half[:, None] * _GL_WEIGHTS[None, :]
    return nodes.ravel(), weights.ravel()


def _radial_edges(r_min: float, r_max: float, per_decade: int, breakpoints=()):
    decades = max(math.log10(r_max / r_min), 1.0)
    count = max(int(math.ceil(per_decade * decades)), 8)
    edges = np.geomspace(r_min, r_max, count + 1)
    extra = [b for b in breakpoints if r_min < b < r_max]
    return np.unique(np.concatenate([[0.0], edges, np.asarray(extra)]))


def lr_power_quad(
    params: ModelParams,
    func,
    support_r: float,
    r_exponent: float,
    core_scale: float,
    breakpoints=(),
    per_decade: int = 16,
) -> float:
    """integral over R^n of |func(|x|)|^r_exponent, func radial with support
    in [0, support_r]."""
    r_min = min(core_scale, support_r) * 1e-4
    edges = _radial_edges(r_min, support_r, per_decade, breakpoints)
    r, w = _panels(edges)
    vals = np.abs(np.asarray(func(r), dtype=np.float64)) ** r_exponent
    return sphere_surface(params.n) * float(np.sum(w * vals * r ** (params.n - 1)))


def unit_rule(per_decade: int, two_ended: bool):
    """Nodes t = rho / r in (0, 1) and weights of a below-diagonal sweep.

    Gauss-Legendre panels geometric in the gap g = 1 - t from 1e-10 up to
    g = 1 (one-ended: coarse toward the origin t -> 0), or up to g = 1/2 and
    mirrored, geometric in t from 1e-10 (two-ended).  For t >= 1/2 the gap
    1 - t is exact in floating point, so the unit kernel row sees the gap of
    its node.
    """
    if not two_ended:
        g, w = _panels(_radial_edges(1e-10, 1.0, per_decade))
        return 1.0 - g, w
    h, w = _panels(_radial_edges(1e-10, 0.5, per_decade))
    return np.concatenate([1.0 - h, h]), np.concatenate([w, w])


def below_sweeps(params: ModelParams, func, r_nodes, r_weights, u_nodes, t, w) -> float:
    """The below-diagonal sum over the outer nodes r of r_weights
    r^(n-1-ps) sum_k w_k Phi(1, t_k) t_k^(n-1) |u(r) - u(r t_k)|^p, with
    u_nodes = func(r_nodes) and the unit rule (t, w), one or more sweeps
    joined; a sweep approximates the planar integral over rho < r (Phi is
    homogeneous of degree -(n + ps)).

    One unit kernel row; func runs on r t in blocks of
    max(1, grid.SLAB_ELEMENTS // t.size) outer nodes, so every temporary
    stays in cache; only the summation order depends on the block size.
    """
    n, p, ps = params.n, params.p, params.p * params.s
    row = w * angular_kernel(n, ps, 1.0, t) * t ** (n - 1)
    coef = r_weights * r_nodes ** (n - 1 - ps)
    block = max(1, grid.SLAB_ELEMENTS // t.size)
    total = 0.0
    for a in range(0, r_nodes.size, block):
        r = r_nodes[a:a + block, None]
        du = np.abs(u_nodes[a:a + block, None] - np.asarray(func(r * t), dtype=np.float64)) ** p
        total += coef[a:a + block] @ (du @ row)
    return float(total)


def gagliardo_pow_quad(
    params: ModelParams,
    func,
    support_r: float,
    core_scale: float,
    breakpoints=(),
) -> float:
    """Continuum Gagliardo seminorm^p of a radial function supported in
    [0, support_r] (unordered-pair convention, unit kernel constant).

    The planar integrand is symmetric in (r, rho), so the interior is two
    below-diagonal sweeps rho = r (1 - g), each an estimate of the half below
    the diagonal: one on the one-ended unit rule with GAP_PER_DECADE panels
    per decade, one on the two-ended rule with TWO_ENDED_PER_DECADE, which
    also resolves the core near the origin when r >> core_scale; below_sweeps
    takes both rules joined, so one unit kernel row serves them.  The exterior contribution integrates the kernel tail
    explicitly up to TAIL_FACTOR * support_r, in one (R, T) kernel call,
    plus an asymptotic remainder.
    """
    n, p = params.n, params.p
    ps = params.p * params.s
    surf = sphere_surface(n)

    r_min = min(core_scale, support_r) * 1e-3
    edges = _radial_edges(r_min, support_r, GAGLIARDO_PER_DECADE, breakpoints)
    r_nodes, r_weights = _panels(edges)
    u_nodes = np.asarray(func(r_nodes), dtype=np.float64)
    t, w = (np.concatenate(part) for part in zip(unit_rule(GAP_PER_DECADE, False),
                                                 unit_rule(TWO_ENDED_PER_DECADE, True)))
    interior = below_sweeps(params, func, r_nodes, r_weights, u_nodes, t, w)

    # exterior: |u(r) - 0|^p against the kernel mass beyond the support
    r_out = TAIL_FACTOR * support_r
    tedges = _radial_edges(support_r, r_out, 8)
    tedges = tedges[tedges >= support_r]
    trho, tw = _panels(tedges)
    tail_per_r = angular_kernel(n, ps, r_nodes[:, None], trho) @ (tw * trho ** (n - 1))
    tail_per_r += surf / ps * r_out ** (-ps)
    exterior = float(np.sum(r_weights * np.abs(u_nodes) ** p * r_nodes ** (n - 1) * tail_per_r))

    # ordered planar integral = interior + 2 * exterior; halve for the
    # unordered-pair convention used by the lattice seminorm
    return surf * (interior + 2.0 * exterior) / 2.0
