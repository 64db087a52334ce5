"""Discrete Sobolev constants, closed-form thresholds and hypothesis flags.

S_d and S_ab_d are minima of discrete Rayleigh quotients on one grid; they are
grid-scoped values and are never presented as the continuum constants.  The
closed forms (Lambda_1, C_0, c_infty, the d_0 bracket) are evaluated from the
printed formulas with S replaced by its discrete counterpart.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConvergenceError
from .grid import Field, FieldPair, GridDomain, as_values, plap_gradient, signed_pow
from .params import ModelParams

QUOTIENT_FLAT_TOL = 1e-6
QUOTIENT_RESTARTS = 10
QUOTIENT_MAX_ITER = 4000        # read at call time, so a test can lower it
TIE_RTOL = 1e-13                # runs ending this close (relative) to the lowest reached the same minimum
_FLAT_PATIENCE = 4


# ---------------------------------------------------------------------------
# Rayleigh quotients and their minimization
# ---------------------------------------------------------------------------

def bump_field(dom: GridDomain) -> np.ndarray:
    """Smooth positive bump adapted to the domain shape; a good descent basin."""
    x = dom.interior
    L = dom.box_length
    if dom.shape == "box":
        vals = np.prod(np.sin(np.pi * x / L), axis=1)
    else:
        c = np.full(dom.dim, L / 2.0)
        r = np.linalg.norm(x - c, axis=1) / (L / 2.0)
        vals = np.cos(0.5 * np.pi * np.clip(r, 0.0, 1.0))
    return np.abs(vals) + 1e-12


# Why a descent stopped; only GRAD_TOL and FLAT count as convergence.
GRAD_TOL = "grad_tol"
FLAT = "flat"
LINE_SEARCH_EXHAUSTED = "line_search_exhausted"
BUDGET = "budget"
CONVERGED_STOPS = (GRAD_TOL, FLAT)

_BACKTRACKS = 60


@dataclass(frozen=True)
class StopRule:
    """When descend() stops.

    An accepted step whose relative decrease is at most flat_tol is flat;
    patience flat steps in a row stop the run (flat_tol = -inf never stops
    it).  The run also stops once |g| <= grad_rtol |g_0| (0: only at an
    exactly zero gradient).  armijo is the sufficient-decrease constant; 0
    accepts every step that does not increase the value.
    """

    max_iter: int
    flat_tol: float
    patience: int = _FLAT_PATIENCE
    grad_rtol: float = 0.0
    armijo: float = 0.0


class Descent(NamedTuple):
    x: np.ndarray
    value: float
    grad: np.ndarray
    stop_reason: str
    iterations: int


def descent_steps(start, stop: StopRule, on_accept=None):
    """Monotone projected descent with Barzilai-Borwein step proposals from
    one start, as a generator that yields each trial raw vector, is sent its
    evaluation and returns the Descent.

    An evaluation is (feasible point, value, gradient, ...), or None for a
    point that cannot be placed; start is one.  Every trial is evaluated in
    full, so an accepted trial already carries its gradient.  Each proposal
    x - s g is halved up to 60 times until its value passes the acceptance
    test of stop; a proposal equal to the previous one is not evaluated again.
    on_accept(evaluation) is called for the start and for each
    accepted point.  The step is 1/max(1, |g0|) at first, then dx.dx / dx.dg
    (BB1) where the curvature dx.dg is positive and |dx| / |dg| where it is
    not, as on much of a nonconvex branch, so that the step keeps adapting.
    """
    x, val, g = start[:3]
    if on_accept is not None:
        on_accept(start)
    del start  # a suspended run holds only the arrays it still needs (descend keeps many)
    g_norm = float(np.linalg.norm(g))
    step = 1.0 / max(1.0, g_norm)
    g_stop = stop.grad_rtol * g_norm
    x_prev = g_prev = None
    flat = 0
    for it in range(stop.max_iter):
        if float(np.linalg.norm(g)) <= g_stop:
            return Descent(x, val, g, GRAD_TOL, it)
        if x_prev is not None:
            dx = x - x_prev
            dg = g - g_prev
            denom, dxdx, dgdg = float(np.dot(dx, dg)), float(np.dot(dx, dx)), float(np.dot(dg, dg))
            if denom > 0:
                step = dxdx / denom
            elif dgdg > 0:  # nonpositive curvature: the BB step would be negative or infinite
                step = (dxdx / dgdg) ** 0.5
            del dx, dg
            step = min(max(step, 1e-14), 1e14)
        gg = float(np.dot(g, g)) if stop.armijo else 0.0
        s = step
        last = None  # the previous proposal: a repeat (s g below the spacing of x) reuses its evaluation
        for _ in range(_BACKTRACKS):
            proposal = x - s * g
            if last is None or not np.array_equal(proposal, last):
                trial = yield proposal
                last = proposal
            if trial is not None and trial[1] <= val - stop.armijo * s * gg:
                break
            s *= 0.5
        else:
            return Descent(x, val, g, LINE_SEARCH_EXHAUSTED, it)
        drop = (val - trial[1]) / max(abs(val), 1e-300)
        x_prev, g_prev = x, g
        x, val, g = trial[:3]
        if on_accept is not None:
            on_accept(trial)
        if drop <= stop.flat_tol:
            flat += 1
            if flat >= stop.patience:
                return Descent(x, val, g, FLAT, it + 1)
        else:
            flat = 0
    return Descent(x, val, g, BUDGET, stop.max_iter)


def descend(inits, evaluate, stop: StopRule, on_accept=None) -> list:
    """descent_steps from every raw starting vector, advanced in lockstep.

    evaluate(list of raw vectors) returns their evaluations in order; it gets
    the starts, then each round the pending trial of every live start, so
    that one stacked kernel pass can serve them all.  on_accept(k, evaluation)
    is descent_steps' hook for start k.  Returns one Descent per start, None
    where the start's own evaluation is None; no run depends on the others.
    """
    results = [None] * len(inits)
    live = {}  # start index -> (run, its pending trial), in start order

    def advance(k, run, evaluation):
        try:
            live[k] = run, run.send(evaluation)
        except StopIteration as done:
            results[k] = done.value

    for k, start in enumerate(evaluate(list(inits))):
        if start is not None:
            advance(k, descent_steps(start, stop, on_accept and partial(on_accept, k)), None)
    while live:
        order = list(live)
        for k, evaluation in zip(order, evaluate([live[k][1] for k in order])):
            advance(k, live.pop(k)[0], evaluation)
    return results


def stacked_evaluate(dom: GridDomain, finish):
    """An evaluate for descend that makes one plap_gradient pass per call:
    the round's |raws| go through plap_gradient as one stack of their
    length-N components, and finish(|raws|, kernel rows), both (k, L)
    arrays, places each row and gives the k evaluations (or None) of the
    round.  An evaluation holds copies of its own rows: a view would keep the
    round's whole stack alive."""
    n = dom.n_interior

    def evaluate(raws):
        if not raws:
            return []
        stack = np.abs(np.stack(raws))
        return finish(stack, plap_gradient(dom, stack.reshape(-1, n)).reshape(stack.shape))

    return evaluate


def first_lowest(runs) -> Optional[int]:
    """Index of the run a multi-start solve reports: the first, in start
    order, whose value lies within TIE_RTOL (relative) of the lowest, so
    that rounding does not choose among starts that reached the same
    minimum; None when every run is None."""
    values = {k: run.value for k, run in enumerate(runs) if run is not None}
    if not values:
        return None
    low = min(values.values())
    return next(k for k, value in values.items() if value - low <= TIE_RTOL * abs(low))


def random_positive_starts(seq: np.random.SeedSequence, count: int, size: int, floor: float) -> list:
    """count vectors |N(0,1)| + floor of length size, one per child spawned from seq."""
    return [np.abs(np.random.default_rng(child).standard_normal(size)) + floor for child in seq.spawn(count)]


def _minimize_quotient(dom: GridDomain, p: float, inits, denominator, degree: float, tol, name, as_state):
    """The descent of P(x) / den(x)^(p/degree), P(x) = x . plap_gradient(x),
    that first_lowest picks among the starting points, QUOTIENT_MAX_ITER
    steps each.

    denominator(x, kernels) gives den, homogeneous of degree `degree`, and
    its gradient at each row of the round's stack |raws| with its kernel rows.
    After the kernel pass a row is placed on den = 1 as c x, c =
    den^(-1/degree), where the quotient is c^p x . k with gradient
    p c^(p-1) k - value (p/degree) c^(degree-1) grad den(x); a row whose den
    is not positive and finite cannot be placed.

    Raises ConvergenceError unless some start finished, i.e. stopped for any
    reason but the budget (an exhausted line search counts as finished); it
    carries the best run's value and state.
    """
    def finish(x, kernels):
        den, grad = denominator(x, kernels)
        placed = (0.0 < den) & (den < np.inf)
        c = np.where(placed, den, 1.0) ** (-1.0 / degree)
        val = c ** p * np.sum(x * kernels, axis=1)
        # in place: on a round's stack, temporaries of its size set the peak memory
        grad *= (-val * (p / degree) * c ** (degree - 1.0))[:, None]
        kernels *= (p * c ** (p - 1.0))[:, None]
        grad += kernels
        return [(ck * xk, float(vk), gk.copy()) if ok else None
                for ok, ck, xk, vk, gk in zip(placed, c, x, val, grad)]

    if not inits:
        raise ValueError(f"{name}: no starting points")
    runs = descend(inits, stacked_evaluate(dom, finish), StopRule(max_iter=QUOTIENT_MAX_ITER, flat_tol=tol))
    if None in runs:
        raise ValueError(f"{name}: infeasible starting point")
    best = runs[first_lowest(runs)]
    if all(run.stop_reason == BUDGET for run in runs):
        raise ConvergenceError(f"{name} descent did not flatten within the iteration budget",
                               last_iterate=as_state(best.x), last_value=best.value)
    return best.value, as_state(best.x)


def compute_S(
    dom: GridDomain,
    params: ModelParams,
    seed: int = 0,
    tol: float = QUOTIENT_FLAT_TOL,
    restarts: int = QUOTIENT_RESTARTS,
    extra_inits=(),
):
    """Minimize the discrete Rayleigh quotient; returns (S_d, minimizer).

    Normalized projected gradient descent on the unit-L^{p*} constraint with
    BB step proposals from the caller-supplied starting fields plus restarts
    seeded starts (a smooth bump, then restarts-1 random positive fields;
    restarts=0 runs the caller's starts only).  The minimizer is reported
    nonnegative: replacing u by |u| never increases the quotient.
    """
    pstar = params.p_star

    def denominator(x, kernels):  # |x|_{p*}^{p*} of x >= 0
        powers = x ** (pstar - 1.0)
        return dom.cell * np.sum(x * powers, axis=1), (pstar * dom.cell) * powers

    inits = [as_values(x).copy() for x in extra_inits]
    if restarts >= 1:
        inits.append(bump_field(dom))
    inits += random_positive_starts(np.random.SeedSequence(seed), max(restarts - 1, 0), dom.n_interior, 1e-6)
    return _minimize_quotient(dom, params.p, inits, denominator, pstar, tol, "Rayleigh", Field)


def compute_S_alpha_beta(
    dom: GridDomain,
    params: ModelParams,
    seed: int = 0,
    tol: float = QUOTIENT_FLAT_TOL,
    restarts: int = QUOTIENT_RESTARTS,
    s_minimizer: Optional[Field] = None,
):
    """Minimize the coupled pair quotient; returns (S_ab_d, minimizing pair).

    Starting points must have a nonvanishing coupling integral.  When the
    scalar minimizer is supplied, the pair (s w, t w) with s/t = (a/b)^(1/p)
    is used as the leading start; that ratio is the exact optimum of the
    connection identity between the two quotients.  restarts counts the
    seeded starts as in compute_S.
    """
    n = dom.n_interior

    def denominator(a, kernels):  # D/2 = cell sum |u|^alpha |v|^beta of a >= 0
        u, v = a[:, :n], a[:, n:]
        au, bv = signed_pow(u, params.alpha - 1.0), signed_pow(v, params.beta - 1.0)
        grad = np.concatenate([params.alpha * au * (bv * v), params.beta * (au * u) * bv], axis=-1)
        grad *= dom.cell
        return dom.cell * np.sum((au * u) * (bv * v), axis=-1), grad

    ratio = (params.alpha / params.beta) ** (1.0 / params.p)
    inits = []
    if s_minimizer is not None:
        w = as_values(s_minimizer)
        inits.append(np.concatenate([ratio * w, w]))
    if restarts >= 1:
        bump = bump_field(dom)
        inits.append(np.concatenate([ratio * bump, bump]))
    inits += random_positive_starts(np.random.SeedSequence(seed), max(restarts - 1, 0), 2 * n, 1e-6)
    return _minimize_quotient(
        dom, params.p, inits, denominator, params.ab, tol, "coupled quotient",
        lambda x: FieldPair(Field(x[:n]), Field(x[n:])),
    )


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def ratio_predicted(params: ModelParams) -> float:
    """(a/b)^(b/(a+b)) + (b/a)^(a/(a+b)): the factor connecting S_ab to S."""
    a, b = params.alpha, params.beta
    ab = params.ab
    return (a / b) ** (b / ab) + (b / a) ** (a / ab)


def ratio_check(s_value: float, s_ab_value: float, params: ModelParams) -> float:
    """Relative error of S_ab against the predicted multiple of S."""
    target = ratio_predicted(params) * s_value
    return abs(s_ab_value - target) / target


def lambda1(params: ModelParams, s_value: float, volume: float) -> float:
    """Smallness threshold for the two-root regime (product of printed powers).

    Uses alpha + beta as given; the formula carries its intended meaning only
    in the critical case, which callers should flag via params.critical.
    """
    p, q = params.p, params.q
    ab = params.ab
    if ab <= p:
        raise ValueError("lambda1 needs alpha + beta > p")
    t1 = ((p - q) / (2.0 * (ab - q))) ** (p / (ab - p))
    t2 = ((ab - q) / (ab - p) * volume ** ((ab - q) / ab)) ** (-p / (p - q))
    t3 = s_value ** (ab / (ab - p) + q / (p - q))
    return t1 * t2 * t3


def c0(params: ModelParams, s_value: float, volume: float) -> float:
    """The energy-floor constant C_0 (closed form, critical exponent p*)."""
    p, q = params.p, params.q
    if q >= p:
        raise ValueError("c0 needs q < p")
    ps = params.p_star
    lead = (p - q) / (p * q * ps)
    return (
        lead
        * (ps - q) ** (p / (p - q))
        / (ps - p) ** (q / (p - q))
        * volume ** (p * (ps - q) / (ps * (p - q)))
        * s_value ** (-q / (p - q))
    )


def c_infty(params: ModelParams, s_ab_value: float, c0_value: float, lam: float, mu: float) -> float:
    """(2s/n) (S_ab/2)^(n/(ps)) - C_0 sigma, sigma at the weights (lam, mu)."""
    p, s, n = params.p, params.s, params.n
    return (2.0 * s / n) * (s_ab_value / 2.0) ** (n / (p * s)) - c0_value * params.with_weights(lam, mu).sigma


class D0Bound(NamedTuple):
    value: float
    smallness_ok: bool


def d0_bound(params: ModelParams, s_value: float, volume: float, lam: float, mu: float) -> D0Bound:
    """Explicit lower bound for the energy on the maximum branch.

    The bracket times the branch norm lower bound raised to q.  smallness_ok
    records whether (q/p)^(p/(p-q)) Lambda_1 holds; outside that range the
    bracket may be nonpositive and the value is returned as is.
    """
    p, q = params.p, params.q
    ab = params.ab
    sigma = params.with_weights(lam, mu).sigma
    norm_lb = ((p - q) / (2.0 * (ab - q))) ** (1.0 / (ab - p)) * s_value ** (ab / (p * (ab - p)))
    bracket = (1.0 / p - 1.0 / ab) * ((p - q) / (2.0 * (ab - q))) ** ((p - q) / (ab - p)) * s_value ** (
        ab * (p - q) / (p * (ab - p))
    ) - (1.0 / q - 1.0 / ab) * s_value ** (-q / p) * volume ** ((ab - q) / ab) * sigma ** ((p - q) / p)
    ok = sigma < (q / p) ** (p / (p - q)) * lambda1(params, s_value, volume)
    return D0Bound(bracket * norm_lb ** q, ok)


# ---------------------------------------------------------------------------
# Parameter hypothesis flags
# ---------------------------------------------------------------------------

def hypotheses_check(params: ModelParams) -> dict:
    """The paper's parameter hypotheses as flags, plus all_ok."""
    p, q, s, n = params.p, params.q, params.s, params.n
    flags = {
        "dimension_ok": p * p * s < n,
        "small_p_ok": p >= 2 or n < p * s / (2.0 - p),  # vacuous for p >= 2
        "q_range_ok": n * (p - 1.0) / (n - p * s) <= q < p,
        "critical_ok": params.critical,  # alpha + beta = p* within 1e-12 relative
    }
    return {**flags, "all_ok": all(flags.values())}


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsReport:
    S_d: float
    S_ab_d: float
    ratio_predicted: float
    ratio_error: float
    lambda1: float
    C0: float
    c_infty: float
    d0_bound: float
    d0_smallness_ok: bool
    volume: float
    lam: float
    mu: float
    critical_formula_exact: bool
    hypotheses: dict

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update({"lambda": out.pop("lam"), "hypotheses_ok": dict(out.pop("hypotheses"))})
        return out


def compute_S_coupled(
    dom: GridDomain,
    params: ModelParams,
    seed: int = 0,
    tol: float = QUOTIENT_FLAT_TOL,
    restarts: int = QUOTIENT_RESTARTS,
):
    """Both quotient minima with basin coupling between the two solvers.

    The discrete quotient has near-degenerate local minima (lattice
    translation-symmetry breaking), and the connection identity between the
    two constants holds between matched basins.  The pair solver starts from
    the scalar minimizer; the scalar solver then gets one extra descent from
    a component of the pair minimizer, which repairs the case where a random
    pair restart found a deeper basin than the scalar run.

    Returns (s_d, s_minimizer, s_ab_d, pair_minimizer).
    """
    s_d, s_min = compute_S(dom, params, seed=seed, tol=tol, restarts=restarts)
    s_ab_d, pair_min = compute_S_alpha_beta(dom, params, seed=seed + 1, tol=tol, restarts=restarts, s_minimizer=s_min)
    back = _extra_start(compute_S, dom, params, seed=seed, tol=tol, extra_inits=(pair_min.v,))
    if back[0] < s_d:
        s_d, s_min = back
        s_ab_d2, pair_min2 = _extra_start(compute_S_alpha_beta, dom, params, seed=seed + 1, tol=tol, s_minimizer=s_min)
        if s_ab_d2 < s_ab_d:
            s_ab_d, pair_min = s_ab_d2, pair_min2
    return s_d, s_min, s_ab_d, pair_min


def _extra_start(solve, dom: GridDomain, params: ModelParams, **kwargs):
    """solve from the caller's start alone (restarts=0) as (value, minimizer).

    The seeded starts have already run, and some of them finished, so a run
    that hits its budget is still a candidate, with the value it reached.
    """
    try:
        return solve(dom, params, restarts=0, **kwargs)
    except ConvergenceError as exc:
        return exc.last_value, exc.last_iterate


def thresholds(params: ModelParams, volume: float, s_d: float, s_ab_d: float) -> ConstantsReport:
    """Every closed form at params' own weights from the discrete constants.

    The only place Lambda_1, C_0, d_0 and c_infty are formed for a run.
    """
    c0_value = c0(params, s_d, volume)
    d0 = d0_bound(params, s_d, volume, params.lam, params.mu)
    return ConstantsReport(
        S_d=s_d,
        S_ab_d=s_ab_d,
        ratio_predicted=ratio_predicted(params),
        ratio_error=ratio_check(s_d, s_ab_d, params),
        lambda1=lambda1(params, s_d, volume),
        C0=c0_value,
        c_infty=c_infty(params, s_ab_d, c0_value, params.lam, params.mu),
        d0_bound=d0.value,
        d0_smallness_ok=d0.smallness_ok,
        volume=volume,
        lam=params.lam,
        mu=params.mu,
        critical_formula_exact=params.critical,
        hypotheses=hypotheses_check(params),
    )
