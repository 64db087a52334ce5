"""Branch minimization, the scalar sublinear problem, and run diagnostics.

The two solutions are found by projected Barzilai-Borwein descent
(constants.descend): a full-gradient step in the product space, then the
absolute value, then re-projection onto the requested fibering root (lower
root for the minimum branch, upper root for the maximum branch).  Because the
Nehari constraint annihilates the state itself, re-projection is first-order
neutral and plain Armijo acceptance applies.  All energies are labeled
best-found: multi-start descent certifies local minimality plus restart
evidence, not global optimality.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bubbles import bubble_field
from .constants import CONVERGED_STOPS, StopRule, bump_field, c0, c_infty, d0_bound, descend
from .energy import ReducedTriple, constraint_gradient_arrays, gradient_arrays, ray_triple
from .errors import BranchLostError, ConvergenceError, SupportError
from .fibering import (
    MINUS_ONLY,
    NMINUS,
    NPLUS,
    PLUS_ONLY,
    TWO_ROOTS,
    classify,
    phi,
    project_triple,
    t_max,
)
from .grid import Field, FieldPair, GridDomain, as_values, lr_norm, pair_norm, plap_gradient, seminorm_p, signed_pow
from .params import ModelParams


BRANCH_FLAT_PATIENCE = 8
SCALAR_MAX_ITER = 20000          # BB budget of the scalar solve without Newton polish (p != 2)


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 4000
    grad_rtol: float = 1e-9          # stop when |grad| falls this far below its initial size
    energy_rtol: float = 1e-13       # accepted-step relative decrease considered flat
    armijo: float = 1e-4
    n_starts: int = 4
    seed: int = 0
    bubble_delta_frac: float = 0.25  # delta as a fraction of the box length
    bubble_eps_frac: float = 0.25    # eps as a fraction of delta
    theta: float = 2.0
    distinct_tol: float = 1e-6
    semitrivial_tol: float = 1e-8


@dataclass
class SolutionReport:
    branch: str
    energy: float
    residual: float                  # tangential (constrained) gradient norm
    grad_norm: float                 # full gradient norm
    iterations: int
    stop_reason: str                 # constants.GRAD_TOL, FLAT, LINE_SEARCH_EXHAUSTED or BUDGET
    semitrivial: bool
    classification: str
    iterate_norm_max: float          # boundedness certificate for the iterates
    pair: FieldPair
    seed_index: int = 0
    checks: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.stop_reason in CONVERGED_STOPS

    def field_hash(self) -> str:
        blob = self.pair.u.values.tobytes() + self.pair.v.values.tobytes()
        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "energy": self.energy,
            "residual": self.residual,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "semitrivial": self.semitrivial,
            "classification": self.classification,
            "iterate_norm_max": self.iterate_norm_max,
            "seed_index": self.seed_index,
            "field_hash": self.field_hash(),
            "checks": dict(self.checks),
        }


def _branch_root(triple: ReducedTriple, params: ModelParams, branch: str) -> Optional[float]:
    if triple.P == 0.0:
        return None
    rep = project_triple(triple, params)
    if branch == NPLUS:
        return rep.t1 if rep.outcome in (TWO_ROOTS, PLUS_ONLY) else None
    return rep.t2 if rep.outcome in (TWO_ROOTS, MINUS_ONLY) else None


def minimize_on_branch(
    params: ModelParams,
    dom: GridDomain,
    branch: str,
    init: FieldPair,
    opts: SolveOptions = SolveOptions(),
    seed_index: int = 0,
) -> SolutionReport:
    """Projected Barzilai-Borwein descent of J restricted to one Nehari branch.

    Each proposal is replaced by its absolute value, which never raises the
    branch energy, and scaled onto the requested root, so iterates stay
    nonnegative.  Proposals that lose the root are halved by the line search;
    the run only aborts when the starting state itself cannot be projected.
    Accepted energies are nonincreasing by construction.
    """
    if branch not in (NPLUS, NMINUS):
        raise ValueError(f"unknown branch {branch!r}")
    if params.lam <= 0 or params.mu <= 0:
        raise ValueError("parameters must be positive")
    n = dom.n_interior
    last_P = norm_max = 0.0  # P of the latest evaluated point; max norm over accepted points

    def evaluate(w):
        nonlocal last_P
        a = np.abs(w)
        kernels = (plap_gradient(dom, a[:n]), plap_gradient(dom, a[n:]))
        triple = ray_triple(params, dom, a[:n], a[n:], kernels=kernels)
        t = _branch_root(triple, params, branch)
        if t is None:
            return None
        triple = triple.scaled(t, params)
        last_P = triple.P
        x = t * a
        # plap_gradient(t a) = t^(p-1) plap_gradient(a): no second pass at x
        tp = t ** (params.p - 1.0)
        grad = gradient_arrays(params, dom, x[:n], x[n:], kernels=(tp * kernels[0], tp * kernels[1]))
        return x, phi(triple, params, 1.0), np.concatenate(grad)

    def accepted(x, value):
        nonlocal norm_max
        norm_max = max(norm_max, last_P ** (1.0 / params.p))

    start = evaluate(np.concatenate([as_values(init.u), as_values(init.v)]))
    if start is None:
        raise BranchLostError(
            "left the two-root regime: the requested root does not exist at the "
            "starting state; use smaller lambda and mu"
        )
    stop = StopRule(
        max_iter=opts.max_iter, flat_tol=opts.energy_rtol, patience=BRANCH_FLAT_PATIENCE,
        grad_rtol=opts.grad_rtol, armijo=opts.armijo,
    )
    run = descend(start, evaluate, stop, on_accept=accepted)

    u, v = run.x[:n], run.x[n:]
    # tangential residual: the gradient minus its part along the constraint gradient
    q = np.concatenate(constraint_gradient_arrays(params, dom, u, v))
    qn2 = float(np.dot(q, q))
    coef = float(np.dot(run.grad, q)) / qn2 if qn2 > 0 else 0.0
    pair = FieldPair(Field(u), Field(v))
    lq_u = lr_norm(dom, u, params.q)
    lq_v = lr_norm(dom, v, params.q)
    semitrivial = min(lq_u, lq_v) <= opts.semitrivial_tol * (lq_u + lq_v)
    return SolutionReport(
        branch=branch,
        energy=run.value,
        residual=float(np.linalg.norm(run.grad - coef * q)),
        grad_norm=float(np.linalg.norm(run.grad)),
        iterations=run.iterations,
        stop_reason=run.stop_reason,
        semitrivial=semitrivial,
        classification=classify(params, dom, pair),
        iterate_norm_max=norm_max,
        pair=pair,
        seed_index=seed_index,
    )


def _random_positive_pair(dom: GridDomain, rng) -> FieldPair:
    u = np.abs(rng.standard_normal(dom.n_interior)) + 1e-3
    v = np.abs(rng.standard_normal(dom.n_interior)) + 1e-3
    return FieldPair(Field(u), Field(v))


def _starts_for_branch(params: ModelParams, dom: GridDomain, branch: str, opts: SolveOptions,
                       extra=None):
    """Deterministic list of starting pairs.

    The maximum branch leads with the weighted bubble pair and, when
    available, the coupled-quotient minimizer (the natural candidate for the
    second solution); both branches include the smooth bump and seeded random
    positive pairs."""
    starts = []
    bump = bump_field(dom)
    if branch == NMINUS:
        if extra is not None:
            starts.append(extra)
        delta = opts.bubble_delta_frac * dom.box_length
        eps = opts.bubble_eps_frac * delta
        try:
            ub = bubble_field(dom, params, eps, delta, opts.theta).values
            starts.append(
                FieldPair(
                    Field(params.alpha ** (1.0 / params.p) * ub),
                    Field(params.beta ** (1.0 / params.p) * ub),
                )
            )
        except SupportError:
            pass  # bubble support may not fit exotic grids; random starts remain
    starts.append(FieldPair(Field(bump.copy()), Field(bump.copy())))
    seq = np.random.SeedSequence(opts.seed, spawn_key=(0 if branch == NPLUS else 1,))
    for child in seq.spawn(max(opts.n_starts - 1, 0)):
        starts.append(_random_positive_pair(dom, np.random.default_rng(child)))
    return starts


def pair_distance(dom: GridDomain, a: FieldPair, b: FieldPair, r: Optional[float] = None) -> float:
    """Relative lattice L^p distance between pairs normalized to unit product norm."""
    p = dom.p if r is None else r
    na = pair_norm(dom, a)
    nb = pair_norm(dom, b)
    if na == 0.0 or nb == 0.0:
        return float(na != nb)
    du = as_values(a.u) / na - as_values(b.u) / nb
    dv = as_values(a.v) / na - as_values(b.v) / nb
    cell = dom.h ** dom.dim
    return float(cell * np.sum(np.abs(du) ** p + np.abs(dv) ** p)) ** (1.0 / p)


def solve_two(
    params: ModelParams,
    dom: GridDomain,
    opts: SolveOptions = SolveOptions(),
    s_d: Optional[float] = None,
    s_ab_d: Optional[float] = None,
    s_ab_minimizer: Optional[FieldPair] = None,
):
    """Minimize on both branches from multiple starts and cross-check the pair.

    Returns (minimum-branch report, maximum-branch report) with the checks
    map filled: energy signs, distinctness, semitriviality, the energy floor,
    and the d0 / c_infty comparisons when discrete constants are supplied.
    Passing the coupled-quotient minimizer adds it to the maximum-branch
    starts.
    """
    if params.lam <= 0 or params.mu <= 0:
        raise ValueError("parameters must be positive")

    best = {}
    for branch in (NPLUS, NMINUS):
        reports = []
        for idx, start in enumerate(_starts_for_branch(params, dom, branch, opts, extra=s_ab_minimizer)):
            try:
                reports.append(minimize_on_branch(params, dom, branch, start, opts, seed_index=idx))
            except BranchLostError:
                continue
        if not reports:
            raise BranchLostError(
                f"no starting state on branch {branch} could be projected; "
                "use smaller lambda and mu"
            )
        reports.sort(key=lambda r: (r.energy, r.seed_index))
        best[branch] = reports[0]

    plus, minus = best[NPLUS], best[NMINUS]
    p, q = params.p, params.q
    sigma = params.lam ** (p / (p - q)) + params.mu ** (p / (p - q))
    dist = pair_distance(dom, plus.pair, minus.pair)
    checks = {
        "energy_plus_negative": plus.energy < 0,
        "energy_minus_positive": minus.energy > 0,
        "distinct": dist > opts.distinct_tol and plus.field_hash() != minus.field_hash(),
        "pair_distance": dist,
        "non_semitrivial_plus": not plus.semitrivial,
        "non_semitrivial_minus": not minus.semitrivial,
        "classified_plus": plus.classification == NPLUS,
        "classified_minus": minus.classification == NMINUS,
    }
    if s_d is not None:
        floor = -c0(params, s_d, dom.volume) * sigma
        checks["energy_floor"] = floor
        checks["floor_plus_ok"] = plus.energy >= floor
        checks["floor_minus_ok"] = minus.energy >= floor
        d0 = d0_bound(params, s_d, dom.volume, params.lam, params.mu)
        checks["d0_bound"] = d0.value
        checks["d0_smallness_ok"] = d0.smallness_ok
        checks["d0_le_minus"] = d0.value <= minus.energy
        if s_ab_d is not None:
            c_inf = c_infty(params, s_ab_d, c0(params, s_d, dom.volume), params.lam, params.mu)
            checks["c_infty"] = c_inf
            checks["minus_below_c_infty"] = minus.energy < c_inf
    plus.checks = checks
    minus.checks = checks
    return plus, minus


# ---------------------------------------------------------------------------
# Scalar sublinear problem
# ---------------------------------------------------------------------------

def _newton_cg(hess, g: np.ndarray, rtol: float = 1e-14) -> np.ndarray:
    """Conjugate gradients for hess(d) = -g, stopped at relative residual
    rtol or on a direction of nonpositive curvature (then the iterate so far,
    or -g when there is none)."""
    d, r, step = np.zeros_like(g), -g, -g
    rr = float(np.dot(g, g))
    for _ in range(g.size):
        hs = hess(step)
        curv = float(np.dot(step, hs))
        if curv <= 0.0:
            return d if d.any() else -g
        d = d + (rr / curv) * step
        r = r - (rr / curv) * hs
        rr, rr_old = float(np.dot(r, r)), rr
        if rr <= rtol ** 2 * float(np.dot(g, g)):
            break
        step = r + (rr / rr_old) * step
    return d


def solve_scalar_sublinear(params: ModelParams, dom: GridDomain, lam: float):
    """Minimize (1/p)[u]^p - (lam/q) sum|u|^q; returns (Field, energy).

    Barzilai-Borwein descent (constants.descend, unconstrained) starts from
    the smooth bump at its exact ray minimum; at p = 2 it is polished with
    damped Newton steps, solved by conjugate gradients on plap_gradient, so
    the stationarity identity [u]^p = lam sum|u|^q holds to near machine
    precision.
    """
    if lam <= 0:
        raise ValueError("the scalar sublinear problem needs lam > 0")
    p, q = params.p, params.q
    cell = dom.h ** dom.dim

    w0 = bump_field(dom)
    qint = cell * float(np.sum(np.abs(w0) ** q))
    ray = (lam * qint / seminorm_p(dom, w0) ** p) ** (1.0 / (p - q))
    u = ray * w0

    def evaluate(x):
        k = plap_gradient(dom, x)
        value = float(np.dot(x, k)) / p - (lam / q) * cell * float(np.sum(np.abs(x) ** q))
        return x, value, k - lam * cell * signed_pow(x, q - 1.0)

    start = evaluate(u)
    g_norm = float(np.linalg.norm(start[2]))
    scale0 = max(g_norm, lam * cell * float(np.sum(np.abs(u) ** (q - 1.0))), 1e-300)
    newton = p == 2.0
    stop = StopRule(
        max_iter=3000 if newton else SCALAR_MAX_ITER,
        flat_tol=-np.inf,
        grad_rtol=(1e-6 if newton else 1e-12) * scale0 / max(g_norm, 1e-300),
    )
    run = descend(start, evaluate, stop)
    u, val, g = run.x, run.value, run.grad

    if newton and np.all(u != 0.0):
        for _ in range(60):
            gn = float(np.linalg.norm(g))
            if gn <= 1e-15 * scale0:
                break
            curv = lam * cell * (q - 1.0) * np.abs(u) ** (q - 2.0)
            d = _newton_cg(lambda x: plap_gradient(dom, x) - curv * x, g)
            # near the minimum an energy difference below the rounding of the
            # energy's two terms has no sign; the gradient norm decides there
            noise = 1e-13 * (abs(val) + 2.0 * (lam / q) * cell * float(np.sum(np.abs(u) ** q)))
            s = 1.0
            for _ in range(40):
                trial = u + s * d
                if np.all(trial != 0.0):
                    _, tval, tg = evaluate(trial)
                    if tval < val or (tval <= val + noise and float(np.linalg.norm(tg)) < gn):
                        u, val, g = trial, tval, tg
                        break
                s *= 0.5
            else:
                break

    gn = float(np.linalg.norm(g))
    if gn > 1e-6 * scale0:
        raise ConvergenceError(
            f"scalar sublinear solve stalled with relative gradient {gn / scale0:.3e}",
            last_iterate=Field(u),
        )
    return Field(u), val


def semitrivial_tmax_check(
    params: ModelParams,
    dom: GridDomain,
    u1,
    w,
    stationarity_rtol: float = 1e-6,
) -> float:
    """Deviation of t_max(u1, w) from ((a+b-q)/(a+b-p))^(1/(p-q)).

    Assumes u1 is stationary for the scalar problem with weight lam and w
    with weight mu, so each component's norm power equals its own weighted
    q-integral and the fibering formula collapses to the closed form (> 1).
    """
    if params.lam <= 0 or params.mu <= 0:
        raise ValueError("semitrivial check needs lam > 0 and mu > 0")
    p, q = params.p, params.q
    ab = params.ab
    zero = np.zeros(dom.n_interior)
    # one component at a time: D = 0, so the constraint is P - B
    tu = ray_triple(params, dom, u1, zero)
    tw = ray_triple(params, dom, zero, w)
    r1 = abs(tu.constraint) / tu.P
    r2 = abs(tw.constraint) / tw.P
    if max(r1, r2) > stationarity_rtol:
        raise ConvergenceError(
            f"inputs are not stationary enough (relative residuals {r1:.3e}, {r2:.3e})"
        )
    tm = t_max(ReducedTriple(tu.P + tw.P, tu.B + tw.B, 0.0), params)
    predicted = ((ab - q) / (ab - p)) ** (1.0 / (p - q))
    return abs(tm - predicted) / predicted
