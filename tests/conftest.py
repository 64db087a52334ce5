import sys
from dataclasses import dataclass
from typing import Optional
from unittest import mock

import numpy as np
import pytest

import nehari_frac as nf
from nehari_frac import constants, fibering, solver
from nehari_frac.bubbles import bubble_field, make_bubble, model_profile
from nehari_frac.energy import ReducedTriple, constraint_gradient_arrays, gradient_arrays, ray_triple
from nehari_frac.errors import BranchLostError, ConvergenceError, NehariFracError
from nehari_frac.fibering import ROOT_RTOL, phi, phi_prime, phi_second
from nehari_frac.grid import as_values, lr_norm, plap_gradient, seminorm_p

# Desk-scale configuration used throughout: p = 2, s = 0.4, n = 2 puts the
# critical exponent at 10/3, and alpha = beta = 5/3 sits exactly on it.
DESK = dict(n=2, p=2.0, s=0.4, q=1.8, alpha=5.0 / 3.0, beta=5.0 / 3.0)


@pytest.fixture(scope="session")
def params():
    return nf.ModelParams(**DESK, lam=0.7, mu=0.4)


@pytest.fixture(scope="session")
def dom(params):
    return nf.build_grid(2, 8, 1.0, 1.0, params)


@pytest.fixture(scope="session")
def dom12(params):
    return nf.build_grid(2, 12, 1.0, 1.0, params)


@pytest.fixture(scope="session")
def dom1d():
    p = nf.ModelParams(n=1, p=2.0, s=0.3, q=1.5, alpha=2.0, beta=2.0, lam=0.5, mu=0.5)
    return p, nf.build_grid(1, 9, 1.0, 1.0, p)


def random_field(dom, rng, positive=False):
    v = rng.standard_normal(dom.n_interior)
    if positive:
        v = np.abs(v) + 1e-3
    return nf.Field(v)


def scale_pair(pair, t):
    """The pair (t u, t v)."""
    return nf.FieldPair(nf.Field(t * pair.u.values), nf.Field(t * pair.v.values))


def psi_prime(triple, params, t):
    """Psi'(t) of Psi(t) = t^(p-ab) P - t^(q-ab) B, the oracle of the branch signs (Lemma 2.5)."""
    p, q, ab = params.p, params.q, params.ab
    return (p - ab) * t ** (p - ab - 1) * triple.P - (q - ab) * t ** (q - ab - 1) * triple.B


def gradient_pair(params, dom, pair):
    """Gradient halves (dJ/du, dJ/dv); entry k equals the first variation
    against the k-th canonical basis pair."""
    return np.split(gradient_arrays(params, dom, as_values(pair.u), as_values(pair.v)), 2)


def gradient_vector(params, dom, pair):
    gu, gv = gradient_pair(params, dom, pair)
    return nf.FieldPair(nf.Field(gu), nf.Field(gv))


def first_variation(params, dom, pair, test):
    """<J'(u, v), (phi, psi)>."""
    gu, gv = gradient_pair(params, dom, pair)
    return float(np.dot(gu, as_values(test.u)) + np.dot(gv, as_values(test.v)))


def energy(params, dom, pair):
    """J(u, v): the fibering map at t = 1 of the pair's ray coefficients."""
    return phi(ray_triple(params, dom, pair.u, pair.v), params, 1.0)


def nehari_constraint(params, dom, pair):
    """||(u,v)||^p - sum(lam|u|^q + mu|v|^q) - 2 sum|u|^a|v|^b: zero exactly
    on the discrete Nehari manifold (and at the zero pair, which is excluded)."""
    return ray_triple(params, dom, pair.u, pair.v).constraint


def rayleigh_quotient(dom, params, u):
    """seminorm_p(u)^p / lr_norm(u, p*)^p; scale-invariant: the value compute_S minimizes."""
    v = as_values(u)
    den = lr_norm(dom, v, params.p_star)
    if den == 0.0:
        raise ValueError("Rayleigh quotient of the zero field is undefined")
    return seminorm_p(dom, v) ** params.p / den ** params.p


def coupled_quotient(dom, params, pair):
    """||(u,v)||^p / (sum |u|^a |v|^b)^(p/(a+b)), i.e. P / (D/2)^(p/(a+b));
    scale-invariant: the value compute_S_alpha_beta minimizes."""
    triple = ray_triple(params, dom, pair.u, pair.v)
    if triple.D == 0.0:
        raise ValueError("coupled quotient undefined: coupling integral vanishes")
    return triple.P / (triple.D / 2.0) ** (params.p / params.ab)


def record_plap_calls(monkeypatch):
    """Route every plap_gradient call of the package through a recorder: the
    returned list gains (rows, all-zero rows) of the stack each call gets."""
    calls = []

    def recorded(dom, u):
        rows = as_values(u).reshape(-1, dom.n_interior)
        calls.append((rows.shape[0], int(np.sum(~rows.any(axis=1)))))
        return plap_gradient(dom, u)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nehari_frac" and getattr(module, "plap_gradient", None) is plap_gradient:
            monkeypatch.setattr(module, "plap_gradient", recorded)
    return calls


def random_pair(dom, rng, positive=False):
    return nf.FieldPair(random_field(dom, rng, positive), random_field(dom, rng, positive))


def balanced_params(params, dom, pair, fill=0.5):
    """Rescale (lam, mu) so the coupling D sits at fill * Psi(t_max): the
    two-root regime with a controlled margin, whatever the pair."""
    base = params.with_weights(1.0, 1.0)
    t = nf.reduce_pair(base, dom, pair)
    if t.D == 0:
        return params.with_weights(1.0, 1.0)
    p, q, ab = params.p, params.q, params.ab
    # Psi(t_max) = K * B^(-(ab-p)/(p-q)) * P^((ab-q)/(p-q)) with the printed K;
    # solve D = fill * Psi(t_max) for B
    K = (p - q) / (ab - q) * ((ab - q) / (ab - p)) ** (-(ab - p) / (p - q))
    target_B = (fill * K * t.P ** ((ab - q) / (p - q)) / t.D) ** ((p - q) / (ab - p))
    scale = target_B / t.B
    return params.with_weights(scale, scale)


def pair_list(dom):
    """(pair_i, pair_j, pair_w) over the unordered interior pairs, pair_i < pair_j,
    with weight h^2n / d^(n + ps): the pair-sum oracle of both kernel routes."""
    ii, jj = np.triu_indices(dom.n_interior, k=1)
    d = np.linalg.norm(dom.interior[ii] - dom.interior[jj], axis=1)
    return ii, jj, dom.h ** (2 * dom.dim) / d ** (dom.dim + dom.p * dom.s)


# ---------------------------------------------------------------------------
# The bisection oracle of the Newton root search and the branch round
# ---------------------------------------------------------------------------

def root_bisect(triple, params, lo, hi, rtol=ROOT_RTOL):
    """Bisection for phi' = 0 in [lo, hi] (sign change required), 200 steps
    at most, then Newton-polished inside the final bracket."""
    flo = phi_prime(triple, params, lo)
    fhi = phi_prime(triple, params, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NehariFracError("root bracket does not straddle a sign change")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = phi_prime(triple, params, mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
        if hi - lo <= rtol * mid:
            break
    t = 0.5 * (lo + hi)
    for _ in range(8):
        f = phi_prime(triple, params, t)
        df = phi_second(triple, params, t)
        if df == 0.0:
            break
        t_new = t - f / df
        if not lo <= t_new <= hi or t_new == t:
            break
        t = t_new
    return t


def bisection_branch_root(triple, params, branch):
    """fibering.branch_root with root_bisect in place of its Newton search:
    the same closed forms and brackets, the oracle of the Newton roots."""
    with mock.patch.object(fibering, "_root_newton", root_bisect):
        return fibering.branch_root(triple, params, branch)


def branch_round(params, dom, branch):
    """The evaluate callback of the lockstep branch descent
    (minimize_on_branch): raws in, one evaluation or None per raw out.  The
    solve it comes from has no start (it raises BranchLostError)."""
    made = []
    build = solver.stacked_evaluate
    with mock.patch.object(solver, "stacked_evaluate", lambda *args: made.append(build(*args)) or made[-1]), \
            pytest.raises(BranchLostError):
        solver.minimize_on_branch(params, dom, branch, [])
    return made[0]


def quotient_round(solve, dom, params):
    """The evaluate callback of a quotient solve's lockstep descent
    (compute_S, compute_S_alpha_beta): raws in, one evaluation or None per
    raw out.  The solve it comes from runs no step (it raises on its budget)."""
    made = []
    build = constants.stacked_evaluate
    with mock.patch.object(constants, "stacked_evaluate", lambda *args: made.append(build(*args)) or made[-1]), \
            mock.patch.object(constants, "QUOTIENT_MAX_ITER", 0), pytest.raises(ConvergenceError):
        solve(dom, params, restarts=1)
    return made[0]


def assert_same_runs(runs, others):
    """Equal lists of Descent or None: arrays bit for bit, the rest equal."""
    assert [run is None for run in runs] == [run is None for run in others]
    for run, other in zip(runs, others):
        if run is not None:
            assert run.x.tobytes() == other.x.tobytes() and run.grad.tobytes() == other.grad.tobytes()
            assert (run.value, *run[3:]) == (other.value, *other[3:])


# ---------------------------------------------------------------------------
# Second-derivative forms and the implicit map
# ---------------------------------------------------------------------------

MANIFOLD_RTOL = 1e-8


class DegenerateDirectionError(NehariFracError):
    """The implicit-map denominator is too close to zero (N0-degenerate)."""


def phi_second_expressions(triple, params):
    """The four equivalent forms of phi''(1) for on-manifold states (P = B + D)."""
    p, q, ab = params.p, params.q, params.ab
    P, B, D = triple.P, triple.B, triple.D
    return (
        (p - 1) * P - (q - 1) * B - (ab - 1) * D,
        (p - ab) * D + (p - q) * B,
        (p - q) * P - (ab - q) * D,
        (p - ab) * P + (ab - q) * B,
    )


def phi_second_consistency(params, dom, pair, tol=MANIFOLD_RTOL):
    """Max pairwise discrepancy of the four phi''(1) forms, relative to term scale.

    Only meaningful on the manifold; off-manifold input is rejected because
    the four forms use the constraint P = B + D.
    """
    triple = nf.reduce_pair(params, dom, pair)
    if not triple.on_manifold(tol):
        raise NehariFracError(
            f"pair is off the manifold (relative constraint {abs(triple.constraint) / triple.P:.3e}); "
            "the equivalent second-derivative forms require membership"
        )
    exprs = phi_second_expressions(triple, params)
    worst = max(abs(exprs[i] - exprs[j]) for i in range(4) for j in range(i + 1, 4))
    return worst / triple.scale_second()


def xi_prime(params, dom, z, omega, tol=MANIFOLD_RTOL, denom_floor=1e-8):
    """Derivative of the re-projection scale xi at an on-manifold state z.

    xi(w) is the scale putting xi(w) (z - w) back on the manifold, xi(0) = 1.
    The value is the constraint variation over phi''(1):

        <xi'(0), omega> = DQ(z)[omega] / [(p-q) P - (a+b-q) D],

    with DQ(z)[omega] the constraint gradient (constraint_gradient_arrays)
    paired with omega:

        DQ(z)[omega] = p A(u,w1) + p A(v,w2) - K(z,omega)
                       - 2 sum(alpha |u|^(a-2) u |v|^b w1 + beta |u|^a |v|^(b-2) v w2)

    with A(u, w) = w . plap_gradient(u) and K(z,omega) = q sum(lam |u|^(q-2) u w1
    + mu |v|^(q-2) v w2).  The sign is fixed by the re-projection derivative
    itself: for omega = z the scale map is xi(eps z) = 1/(1-eps), so
    <xi'(0), z> = +1.
    """
    triple = nf.reduce_pair(params, dom, z)
    if not triple.on_manifold(tol):
        raise NehariFracError(
            f"xi_prime needs an on-manifold state (relative constraint {abs(triple.constraint) / triple.P:.3e})"
        )
    p, q, ab = params.p, params.q, params.ab
    denom = (p - q) * triple.P - (ab - q) * triple.D
    if abs(denom) <= denom_floor * triple.scale_second():
        raise DegenerateDirectionError(
            "N0-degenerate direction: the implicit-map denominator is numerically zero"
        )
    qu, qv = np.split(constraint_gradient_arrays(params, dom, as_values(z.u), as_values(z.v)), 2)
    numer = float(np.dot(qu, as_values(omega.u)) + np.dot(qv, as_values(omega.v)))
    return numer / denom


# ---------------------------------------------------------------------------
# Inequality spot checks (exact on the lattice when alpha + beta = p*)
# ---------------------------------------------------------------------------

def holder_bound_check(params, dom, pair, s_value):
    """Slack of sum(lam|u|^q + mu|v|^q) <= S^(-q/p) |Omega|^((a+b-q)/(a+b))
    sigma^((p-q)/p) ||(u,v)||^q with the discrete S; nonnegative up to roundoff."""
    p, q, ab = params.p, params.q, params.ab
    triple = ray_triple(params, dom, pair.u, pair.v)
    norm = triple.P ** (1.0 / p)
    rhs = s_value ** (-q / p) * dom.volume ** ((ab - q) / ab) * params.sigma ** ((p - q) / p) * norm ** q
    return rhs - triple.B


def young_bound_check(params, dom, pair, s_value):
    """Slack of 2 sum|u|^a|v|^b <= 2 S^(-(a+b)/p) ||(u,v)||^(a+b) with the discrete S."""
    ab = params.ab
    triple = ray_triple(params, dom, pair.u, pair.v)
    rhs = 2.0 * s_value ** (-ab / params.p) * triple.P ** (ab / params.p)
    return rhs - triple.D


# ---------------------------------------------------------------------------
# Truncation maps and decay diagnostics of the model profile
# ---------------------------------------------------------------------------

def truncation(params, epsilon, delta, theta, t):
    """The cut maps (g, G) at level t >= 0.

    g is the three-piece absolutely continuous map with slope m^p in the
    transition band; G = integral of (g')^(1/p) collapses to 0 below the
    outer level, m*(t - outer) in the band, and t above the inner level.
    """
    bub = make_bubble(params, epsilon, delta, theta)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0):
        raise ValueError("truncation maps are defined for t >= 0")
    p = params.p
    lo, hi, m = bub.u_at_theta_delta, bub.u_at_delta, bub.m_eps_delta
    g = np.where(
        t_arr <= lo,
        0.0,
        np.where(t_arr <= hi, m ** p * (t_arr - lo), t_arr + hi * (m ** (p - 1.0) - 1.0)),
    )
    G = np.where(t_arr <= lo, 0.0, np.where(t_arr <= hi, m * (t_arr - lo), t_arr))
    if t_arr.ndim:
        return g, G
    return float(g), float(G)


@dataclass(frozen=True)
class DecayReport:
    c1_hat: float
    c2_hat: float
    halving_ok: bool
    theta_min: Optional[float]


def decay_check(params, r_grid, theta):
    """Fit the decay envelope U(r) r^((n-ps)/(p-1)) of the model profile on
    r_grid (all r > 1) and check the halving property U(theta r) <= U(r)/2;
    also scan for the smallest theta achieving the halving over the same grid."""
    r = np.asarray(r_grid, dtype=np.float64)
    if np.any(r <= 1.0):
        raise ValueError("decay check needs radii > 1")
    decay = (params.n - params.p * params.s) / (params.p - 1.0)
    envelope = model_profile(params, r) * r ** decay
    c1, c2 = float(np.min(envelope)), float(np.max(envelope))
    halving_ok = bool(np.all(model_profile(params, theta * r) <= 0.5 * model_profile(params, r)))
    theta_min = None
    for cand in np.geomspace(1.01, 8.0, 400):
        if np.all(model_profile(params, cand * r) <= 0.5 * model_profile(params, r)):
            theta_min = float(cand)
            break
    return DecayReport(c1, c2, halving_ok, theta_min)


# ---------------------------------------------------------------------------
# Cross-checks of the sup scan's coupling-only ray maximum
# ---------------------------------------------------------------------------

def coupling_ray(dom, params, delta, theta, eps):
    """(P0, D0) of the weighted bubble pair (a^(1/p) u, b^(1/p) u) that
    sup_energy_scan puts on its ray at eps; neither depends on lam or mu."""
    uv = bubble_field(dom, params, eps, delta, theta).values
    p = params.p
    triple = ray_triple(params, dom, params.alpha ** (1.0 / p) * uv, params.beta ** (1.0 / p) * uv)
    return triple.P, triple.D


def _golden_max(f, lo, hi, rtol=1e-10):
    """Golden-section maximizer on [lo, hi] for a unimodal function."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rtol * (abs(a) + abs(b)) / 2.0:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def t_star_by_search(dom, params, delta, theta, eps):
    """Maximizer of the coupling-only ray energy phi(P0, 0, D0; t) by a
    241-point geometric grid over [t*/8, 8 t*] around the closed form t*,
    refined by golden section: the cross-check of the scan's t_star."""
    P0, D0 = coupling_ray(dom, params, delta, theta, eps)
    coupling_only = ReducedTriple(P0, 0.0, D0)
    t_star = (P0 / D0) ** (1.0 / (params.ab - params.p))

    def h_of_t(t):
        return phi(coupling_only, params, t)

    coarse = np.geomspace(t_star / 8.0, 8.0 * t_star, 241)
    k = int(np.argmax([h_of_t(t) for t in coarse]))
    lo = coarse[max(k - 1, 0)]
    hi = coarse[min(k + 1, coarse.size - 1)]
    return _golden_max(h_of_t, lo, hi, rtol=1e-11)


def h_expanded(dom, params, delta, theta, eps):
    """The coupling-only ray maximum through the bubble's Rayleigh quotient
    and the connection factor, (s/n) 2^(-(n-ps)/(ps)) (ratio Q)^(n/(ps)): the
    second route to the scan's h_at_tstar, exact when a + b = p*."""
    if not params.critical:
        raise ValueError("the expansion holds only in the critical case")
    n, p, s = params.n, params.p, params.s
    P0, _ = coupling_ray(dom, params, delta, theta, eps)
    uv = bubble_field(dom, params, eps, delta, theta).values
    lp_pow = dom.cell * float(np.sum(np.abs(uv) ** params.p_star))
    quotient = (P0 / params.ab) / lp_pow ** (p / params.p_star)  # P0 = (a + b) [u]^p
    return (
        (s / n)
        * 2.0 ** (-(n - p * s) / (p * s))
        * nf.ratio_predicted(params) ** (n / (p * s))
        * quotient ** (n / (p * s))
    )
