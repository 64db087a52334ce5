"""Model minimizer profile, rescaling, truncation pipeline, and asymptotic scans.

The base profile U(r) = (1 + r^(p/(p-1)))^(-(n-ps)/p) is the conjectured
Rayleigh minimizer shape; it is a proven minimizer only for p = 2 and is used
here as a model profile.  The truncation maps g and G cut the rescaled profile
U_eps to the ball of radius theta*delta while keeping it untouched inside
radius delta; the bubbles on the grid are centred in the domain.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .constants import ConstantsReport
from .energy import ReducedTriple, ray_triple
from .errors import ConvergenceError, SupportError
from .fibering import NMINUS, branch_root, phi
from .grid import Field, GridDomain, lr_norm, seminorm_p
from .params import ModelParams


# ---------------------------------------------------------------------------
# Radial profiles
# ---------------------------------------------------------------------------

def model_profile(params: ModelParams, r):
    """The conjectured minimizer shape; U(0) = 1, strictly decreasing.

    Proven to be the actual minimizer only for p = 2; for other p it is a
    model profile, so the bubble scans at p != 2 probe that model.
    """
    r = np.asarray(r, dtype=np.float64)
    expo = params.p / (params.p - 1.0)
    out = (1.0 + r ** expo) ** (-(params.n - params.p * params.s) / params.p)
    return out if out.ndim else float(out)


def rescale(params: ModelParams, epsilon: float, r):
    """U_eps(r) = eps^(-(n-ps)/p) U(r/eps) of the model profile."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    scale = epsilon ** (-(params.n - params.p * params.s) / params.p)
    return scale * model_profile(params, np.asarray(r, dtype=np.float64) / epsilon)


# ---------------------------------------------------------------------------
# Truncation pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BubbleProfile:
    """The rescaled model profile with its truncation levels precomputed."""

    params: ModelParams
    epsilon: float
    delta: float
    theta: float
    u_at_delta: float       # U_eps(delta)
    u_at_theta_delta: float  # U_eps(theta*delta)
    m_eps_delta: float


def make_bubble(params: ModelParams, epsilon: float, delta: float, theta: float) -> BubbleProfile:
    if delta <= 0:
        raise ValueError("delta must be positive")
    if theta <= 1:
        raise ValueError("theta must exceed 1")
    if not 0 < epsilon <= delta / 2.0:
        raise ValueError(f"eps = {epsilon} violates 0 < eps <= delta/2 = {delta / 2.0}")
    u_d = float(rescale(params, epsilon, delta))
    u_td = float(rescale(params, epsilon, theta * delta))
    if not u_td < u_d:
        raise ValueError("profile is not strictly decreasing between delta and theta*delta")
    m = u_d / (u_d - u_td)
    return BubbleProfile(params, epsilon, delta, theta, u_d, u_td, m)


def bubble_value(bub: BubbleProfile, r):
    """u_eps_delta(r) = G(U_eps(r)): U_eps inside delta, 0 outside theta*delta."""
    r = np.asarray(r, dtype=np.float64)
    t = rescale(bub.params, bub.epsilon, r)
    lo, hi, m = bub.u_at_theta_delta, bub.u_at_delta, bub.m_eps_delta
    out = np.where(t <= lo, 0.0, np.where(t <= hi, m * (t - lo), t))
    return out if out.ndim else float(out)


def support_fits(dom: GridDomain, delta: float, theta: float) -> bool:
    """Whether the support ball of radius theta*delta around the centre of the
    domain fits inside the interior region (touching the boundary is allowed;
    the profile is zero there anyway)."""
    return theta * delta <= dom.box_length / 2.0 * (1.0 + 1e-12)


def bubble_field(dom: GridDomain, params: ModelParams, epsilon: float, delta: float, theta: float) -> Field:
    """Sample the centred truncated model bubble on the interior nodes;
    SupportError when its support does not fit or holds no node."""
    if not support_fits(dom, delta, theta):
        raise SupportError(
            f"support ball of radius {theta * delta:.6g} does not fit: clearance is {dom.box_length / 2.0:.6g}"
        )
    bub = make_bubble(params, epsilon, delta, theta)
    r = np.linalg.norm(dom.interior - dom.box_length / 2.0, axis=1)
    values = bubble_value(bub, r)
    if not values.any():
        raise SupportError(
            f"the bubble at eps = {epsilon:.6g} is zero on every interior node: its support radius "
            f"theta*delta = {theta * delta:.6g} does not reach the nearest node, {r.min():.6g} from the centre"
        )
    return Field(values)


# ---------------------------------------------------------------------------
# Norm-estimate scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormScanRow:
    eps: float
    seminorm_p_pow: float
    lpstar_pow: float
    excess: float
    deficit: float


@dataclass(frozen=True)
class NormScanResult:
    rows: tuple
    method: str
    sem_reference: float
    lp_reference: float
    excess_slope: Optional[float]
    deficit_slope: Optional[float]
    excess_slope_predicted: float
    deficit_slope_predicted: float


def _loglog_slope(x: np.ndarray, residuals: np.ndarray, lead_scale: np.ndarray):
    """Least-squares slope of log residuals against log x, excluding rows with
    nonpositive residuals or residuals below 10x machine epsilon of the
    leading term."""
    keep = (residuals > 0) & (residuals > 10.0 * np.finfo(float).eps * lead_scale)
    if np.count_nonzero(keep) < 2:
        return None
    return float(np.polyfit(np.log(x[keep]), np.log(residuals[keep]), 1)[0])


def _richardson_limit(values: np.ndarray, increasing: bool):
    """Extrapolated eps -> 0 limit of a sequence sampled on halving eps.

    Assumes value(eps) = limit +/- C eps^kappa; kappa is estimated from the
    last two consecutive differences and the geometric tail is summed.
    Returns None when the differences do not behave like a contraction.
    """
    d = np.diff(values)
    if not increasing:
        d = -d  # work with a positive decreasing difference sequence
    if d.size < 2 or np.any(d <= 0):
        return None
    ratio = d[-1] / d[-2]
    if not 0 < ratio < 1:
        return None
    tail = d[-1] * ratio / (1.0 - ratio)
    return values[-1] + tail if increasing else values[-1] - tail


def norm_estimate_scan(
    dom: GridDomain,
    params: ModelParams,
    delta: float,
    theta: float,
    eps_list: Sequence[float],
    s_ref: float,
    method: str = "lattice",
) -> NormScanResult:
    """Seminorm and L^{p*} powers of the truncated bubble for each eps, with
    log-log least-squares fits of the excess/deficit trends.

    method="lattice" uses the grid sums with S_ref^(n/(ps)) as the reference
    level; on coarse grids the core is unresolved below eps ~ h and the
    residuals need not follow the continuum trend (slopes may come back
    None).  method="quadrature" evaluates the continuum radial integrals
    (resolved at every eps) and references them against their own
    Richardson-extrapolated eps -> 0 limits, computed from two auxiliary
    rows at half and a quarter of the smallest eps; this is the route that
    exhibits the predicted exponents (n-ps)/(p-1) and n/(p-1) at desk scale.
    """
    if len(eps_list) == 0:
        raise ValueError("eps_list must not be empty")
    if method not in ("lattice", "quadrature"):
        raise ValueError(f"unknown scan method {method!r}")
    n, p, s = params.n, params.p, params.s
    eps_sorted = sorted(eps_list, reverse=True)

    if method == "lattice":
        sems, lps = [], []
        for e in eps_sorted:
            u = bubble_field(dom, params, e, delta, theta)
            sems.append(seminorm_p(dom, u) ** p)
            lps.append(lr_norm(dom, u, params.p_star) ** params.p_star)
        sem_ref = lp_ref = s_ref ** (n / (p * s))
    else:
        from .radial_quad import gagliardo_pow_quad, lr_power_quad

        support = theta * delta
        aux = eps_sorted + [eps_sorted[-1] / 2.0, eps_sorted[-1] / 4.0]
        sems, lps = [], []
        for e in aux:
            bub = make_bubble(params, e, delta, theta)
            func = lambda r: bubble_value(bub, r)
            sems.append(gagliardo_pow_quad(params, func, support, e, breakpoints=(delta,)))
            lps.append(lr_power_quad(params, func, support, params.p_star, e, breakpoints=(delta,)))
        sem_ref = _richardson_limit(np.array(sems), increasing=False)
        lp_ref = _richardson_limit(np.array(lps), increasing=True)
        for name, values, ref in (("seminorm_p_pow", sems, sem_ref), ("lpstar_pow", lps, lp_ref)):
            if ref is None:
                d = np.diff(values)
                raise ConvergenceError(
                    f"Richardson reference failed: the {name} differences {[float(f'{x:.6g}') for x in d]} "
                    f"along eps = {aux} need one sign and a last ratio in (0, 1), got {d[-1] / d[-2]:.6g}")
        sems, lps = sems[: len(eps_sorted)], lps[: len(eps_sorted)]

    rows = tuple(
        NormScanRow(e, sem, lp, sem - sem_ref, lp_ref - lp)
        for e, sem, lp in zip(eps_sorted, sems, lps)
    )
    x = np.array(eps_sorted) / delta
    return NormScanResult(
        rows=rows,
        method=method,
        sem_reference=sem_ref,
        lp_reference=lp_ref,
        excess_slope=_loglog_slope(x, np.array([r.excess for r in rows]), np.array(sems)),
        deficit_slope=_loglog_slope(x, np.array([r.deficit for r in rows]), np.array(lps)),
        excess_slope_predicted=(n - p * s) / (p - 1.0),
        deficit_slope_predicted=n / (p - 1.0),
    )


# ---------------------------------------------------------------------------
# Sup-energy scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupScanRow:
    eps: float
    t_star: float
    h_at_tstar: float
    sup_full: float
    q_regime: str
    c_infty: float
    below_c_infty: bool


def q_regime_label(params: ModelParams) -> str:
    """Scaling regime of the concave mass of the bubble core, by q against
    the threshold n(p-1)/(n-ps)."""
    n, p, q, s = params.n, params.p, params.q, params.s
    threshold = n * (p - 1.0) / (n - p * s)
    if abs(q - threshold) <= 1e-12 * max(1.0, threshold):
        expo = n - q * (n - p * s) / p
        return f"critical-q branch eps^{expo:.6g}*|log eps|"
    if q > threshold:
        expo = n - q * (n - p * s) / p
        return f"supercritical-q branch eps^{expo:.6g}"
    expo = (n - p * s) * q / (p * (p - 1.0))
    return f"subcritical-q branch eps^{expo:.6g}"


def sup_energy_scan(
    dom: GridDomain,
    params: ModelParams,
    delta: float,
    theta: float,
    eps_list: Sequence[float],
    constants: ConstantsReport,
):
    """Ray-energy maxima of the weighted bubble pair (a^(1/p) u, b^(1/p) u).

    Per eps: the maximizer t_star of the coupling-only part (its
    fibering.branch_root) and its maximum h_at_tstar, the full ray supremum
    including the concave term at the weights of constants (a
    constants.thresholds record), the q-regime label of the core concave
    mass, and the comparison against the record's c_infty.
    """
    if len(eps_list) == 0:
        raise ValueError("eps_list must not be empty")

    p = params.p
    label = q_regime_label(params)
    weighted = params.with_weights(constants.lam, constants.mu)

    rows = []
    for e in sorted(eps_list, reverse=True):
        uv = bubble_field(dom, params, e, delta, theta).values
        triple = ray_triple(weighted, dom, params.alpha ** (1.0 / p) * uv, params.beta ** (1.0 / p) * uv)
        # the coupling-only ray (B = 0) has its one maximum at its NMINUS root
        convex = ReducedTriple(triple.P, 0.0, triple.D)
        t_star = branch_root(convex, params, NMINUS)
        h_at_tstar = phi(convex, params, t_star)

        # sup over t >= 0 includes phi(0) = 0; with two roots the ray maximum
        # sits at the upper one, above the threshold phi is nonincreasing
        t2 = branch_root(triple, params, NMINUS)
        sup_full = 0.0 if t2 is None else max(phi(triple, params, t2), 0.0)

        rows.append(
            SupScanRow(
                eps=e,
                t_star=t_star,
                h_at_tstar=h_at_tstar,
                sup_full=sup_full,
                q_regime=label,
                c_infty=constants.c_infty,
                below_c_infty=bool(sup_full < constants.c_infty),
            )
        )
    return rows
