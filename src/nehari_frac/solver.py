"""Branch minimization, the scalar sublinear problem, and run diagnostics.

The two solutions are found by projected Barzilai-Borwein descent
(constants.descend): a full-gradient step in the product space, then the
absolute value, then re-projection onto the requested fibering root
(fibering.branch_root: lower root for the minimum branch, upper root for the
maximum branch).  Because the Nehari constraint annihilates the state itself,
re-projection is first-order neutral and plain Armijo acceptance applies.  The
energy chain is checked against one constants.thresholds record.  All energies
are labeled best-found: multi-start descent certifies local minimality plus
restart evidence, not global optimality.

The scalar sublinear problem, the semitrivial face J(u, 0), takes one route at
every p: damped Newton-CG from the bump at its ray minimum.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .bubbles import bubble_field
from .constants import (
    CONVERGED_STOPS, ConstantsReport, StopRule, bump_field, descend, first_lowest, random_positive_starts,
    slab_workers, stacked_evaluate,
)
from .energy import (
    ReducedTriple, component_powers, constraint_gradient_arrays, gradient_arrays, ray_triple, triple_gradients,
)
from .errors import BranchLostError, ConvergenceError, ZeroPairError
from .fibering import NMINUS, NPLUS, branch_root, classify_triple, phi, t_max
from .grid import Field, FieldPair, GridDomain, as_values, lr_norm, plap_gradient
from .params import ModelParams


BRANCH_FLAT_PATIENCE = 8
GRAD_RTOL = 1e-9                 # stop when |grad| falls this far below its initial size
ENERGY_RTOL = 1e-13              # accepted-step relative decrease considered flat
ARMIJO = 1e-4
BUBBLE_DELTA_FRAC = 0.25         # bubble start: delta as a fraction of the box length
BUBBLE_EPS_FRAC = 0.25           # bubble start: eps as a fraction of delta
BUBBLE_THETA = 2.0
DISTINCT_TOL = 1e-6              # two solutions are distinct above this pair_distance
SEMITRIVIAL_TOL = 1e-8           # a component with at most this share of the L^q norms is zero
STATIONARITY_RTOL = 1e-6         # semitrivial_tmax_check: largest relative gradient of its inputs
FD_STEP = 1e-7                   # scalar Newton: difference step of the Hessian product, times |u|/|d|
CG_RTOL = 1e-8                   # scalar Newton: relative residual that stops conjugate gradients
BRANCH_STARTS = 4                # per branch: the bump, then BRANCH_STARTS - 1 seeded random pairs
BRANCH_MAX_ITER = 4000           # both read at call time, so a test can lower them


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
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "pair"}
        out.update(converged=self.converged, field_hash=self.field_hash(), checks=dict(self.checks))
        return out


def minimize_on_branch(params: ModelParams, dom: GridDomain, branch: str, starts) -> SolutionReport:
    """Projected Barzilai-Borwein descent of J restricted to one Nehari branch
    from each raw (2N,) start (u then v), all in one lockstep descend.

    Each proposal is replaced by its absolute value, which never raises the
    branch energy, and scaled onto the requested root, so iterates stay
    nonnegative.  Proposals that lose the root are halved by the line search;
    a start is dropped only when it cannot itself be projected.  Accepted
    energies are nonincreasing by construction.  Reports the start
    constants.first_lowest picks, and raises BranchLostError when no start
    can be projected.
    """
    if branch not in (NPLUS, NMINUS):
        raise ValueError(f"unknown branch {branch!r}")
    if params.lam <= 0 or params.mu <= 0:
        raise ValueError("parameters must be positive")
    n = dom.n_interior

    def finish(a, kernels):
        u, v, kernels = a[:, :n], a[:, n:], (kernels[:, :n], kernels[:, n:])
        powers = component_powers(params, u, v)
        triple = ray_triple(params, dom, u, v, kernels, powers)
        rays = [ReducedTriple(*row) for row in zip(triple.P.tolist(), triple.B.tolist(), triple.D.tolist())]
        roots = [branch_root(ray, params, branch) for ray in rays]
        # the gradient at t a from the kernel rows and powers of a; a row without a root takes t = 1 and is dropped
        t = np.array([1.0 if r is None else r for r in roots])
        g = gradient_arrays(params, dom, u, v, kernels, powers, t=t[:, None])
        # the 4th entry, the norm P^(1/p) of the placed point, makes the run's peak its iterate_norm_max
        return [None if r is None else
                (r * a[k], phi(ray, params, r), g[k].copy(), (r ** params.p * ray.P) ** (1.0 / params.p))
                for k, (r, ray) in enumerate(zip(roots, rays))]

    stop = StopRule(
        max_iter=BRANCH_MAX_ITER, flat_tol=ENERGY_RTOL, patience=BRANCH_FLAT_PATIENCE,
        grad_rtol=GRAD_RTOL, armijo=ARMIJO,
    )
    runs = descend(starts, stacked_evaluate(dom, finish), stop, slab_workers(dom))
    k = first_lowest(runs)
    if k is None:
        raise BranchLostError(
            f"left the two-root regime: the {branch} root does not exist at any "
            "starting state; use smaller lambda and mu"
        )
    return _branch_report(params, dom, branch, runs[k], k)


def _branch_report(params: ModelParams, dom: GridDomain, branch: str, run, seed_index: int) -> SolutionReport:
    n = dom.n_interior
    u, v = run.x[:n], run.x[n:]
    kernels = plap_gradient(dom, run.x.reshape(2, n))  # one stacked pass serves both uses below
    powers = component_powers(params, u, v)
    # tangential residual: the gradient minus its part along the constraint gradient
    q = constraint_gradient_arrays(params, dom, u, v, kernels, powers)
    qn2 = float(np.dot(q, q))
    coef = float(np.dot(run.grad, q)) / qn2 if qn2 > 0 else 0.0
    pair = FieldPair(Field(u), Field(v))
    lq_u = lr_norm(dom, u, params.q)
    lq_v = lr_norm(dom, v, params.q)
    semitrivial = min(lq_u, lq_v) <= SEMITRIVIAL_TOL * (lq_u + lq_v)
    return SolutionReport(
        branch=branch,
        energy=run.value,
        residual=float(np.linalg.norm(run.grad - coef * q)),
        grad_norm=float(np.linalg.norm(run.grad)),
        iterations=run.iterations,
        stop_reason=run.stop_reason,
        semitrivial=semitrivial,
        classification=classify_triple(ray_triple(params, dom, u, v, kernels, powers), params),
        iterate_norm_max=run.peak,
        pair=pair,
        seed_index=seed_index,
    )


def _starts_for_branch(params: ModelParams, dom: GridDomain, branch: str, seed: int, extra=None):
    """Deterministic list of raw (2N,) starting vectors (u then v).

    The maximum branch leads with the weighted bubble pair and, when
    available, the coupled-quotient minimizer (the natural candidate for the
    second solution); both branches include the smooth bump and seeded random
    positive pairs."""
    starts = []
    if branch == NMINUS:
        if extra is not None:
            starts.append(np.concatenate([as_values(extra.u), as_values(extra.v)]))
        # the support radius BUBBLE_THETA * BUBBLE_DELTA_FRAC * L is L/2 exactly,
        # which bubbles.support_fits allows on every box and ball
        delta = BUBBLE_DELTA_FRAC * dom.box_length
        eps = BUBBLE_EPS_FRAC * delta
        ub = bubble_field(dom, params, eps, delta, BUBBLE_THETA).values
        starts.append(np.concatenate([params.alpha ** (1.0 / params.p) * ub, params.beta ** (1.0 / params.p) * ub]))
    starts.append(np.tile(bump_field(dom), 2))
    seq = np.random.SeedSequence(seed, spawn_key=(0 if branch == NPLUS else 1,))
    return starts + random_positive_starts(seq, BRANCH_STARTS - 1, 2 * dom.n_interior, 1e-3)


def pair_distance(dom: GridDomain, a: FieldPair, b: FieldPair) -> float:
    """Relative lattice L^p distance between pairs normalized to unit product
    norm (P^(1/p), P = [u]^p + [v]^p), both norms from one stacked kernel pass."""
    p = dom.p
    x = np.stack([as_values(a.u), as_values(a.v), as_values(b.u), as_values(b.v)])
    na, nb = (np.sum(x * plap_gradient(dom, x), axis=-1).reshape(2, 2).sum(axis=-1) ** (1.0 / p)).tolist()
    if na == 0.0 or nb == 0.0:
        return float(na != nb)
    du = as_values(a.u) / na - as_values(b.u) / nb
    dv = as_values(a.v) / na - as_values(b.v) / nb
    return float(dom.cell * np.sum(np.abs(du) ** p + np.abs(dv) ** p)) ** (1.0 / p)


def solve_two(
    params: ModelParams,
    dom: GridDomain,
    seed: int = 0,
    constants: Optional[ConstantsReport] = None,
    s_ab_minimizer: Optional[FieldPair] = None,
):
    """Minimize on both branches from multiple starts and cross-check the pair.

    Returns (minimum-branch report, maximum-branch report) with the checks
    map filled: energy signs, distinctness, semitriviality and, when the
    thresholds of constants.thresholds are supplied (at these weights and
    this domain's volume), the energy floor -C_0 sigma and the d0 / c_infty
    comparisons.  seed seeds the random starts; passing the coupled-quotient
    minimizer adds it to the maximum-branch starts.
    """
    if constants is not None and (constants.lam, constants.mu, constants.volume) != (params.lam, params.mu, dom.volume):
        raise ValueError("the thresholds were evaluated at other weights or on another domain")

    plus, minus = (minimize_on_branch(params, dom, b, _starts_for_branch(params, dom, b, seed, s_ab_minimizer))
                   for b in (NPLUS, NMINUS))
    dist = pair_distance(dom, plus.pair, minus.pair)
    checks = {
        "energy_plus_negative": plus.energy < 0,
        "energy_minus_positive": minus.energy > 0,
        "distinct": dist > DISTINCT_TOL and plus.field_hash() != minus.field_hash(),
        "pair_distance": dist,
        "non_semitrivial_plus": not plus.semitrivial,
        "non_semitrivial_minus": not minus.semitrivial,
        "classified_plus": plus.classification == NPLUS,
        "classified_minus": minus.classification == NMINUS,
    }
    if constants is not None:
        floor = -constants.C0 * params.sigma
        checks["energy_floor"] = floor
        checks["floor_plus_ok"] = plus.energy >= floor
        checks["floor_minus_ok"] = minus.energy >= floor
        checks["d0_bound"] = constants.d0_bound
        checks["d0_smallness_ok"] = constants.d0_smallness_ok
        checks["d0_le_minus"] = constants.d0_bound <= minus.energy
        checks["c_infty"] = constants.c_infty
        checks["minus_below_c_infty"] = minus.energy < constants.c_infty
    plus.checks = checks
    minus.checks = checks
    return plus, minus


# ---------------------------------------------------------------------------
# Scalar sublinear problem
# ---------------------------------------------------------------------------

def _newton_cg(hess, g: np.ndarray) -> np.ndarray:
    """Conjugate gradients for hess(d) = -g, stopped at relative residual
    CG_RTOL or on a direction of nonpositive curvature (then the iterate so
    far, or -g when there is none)."""
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
        if rr <= CG_RTOL ** 2 * float(np.dot(g, g)):
            break
        step = r + (rr / rr_old) * step
    return d


def solve_scalar_sublinear(params: ModelParams, dom: GridDomain, lam: float):
    """Minimize J(u, 0) = (1/p)[u]^p - (lam/q) sum|u|^q; returns (Field, energy).

    Its value, u-gradient and ray coefficients (P, B, 0) are energy's at (u, 0)
    with the weights (lam, 0).  Damped Newton steps from the smooth bump at its
    ray minimum (fibering.branch_root, D = 0), each solved by conjugate gradients
    on a forward difference of plap_gradient: one route at every p, ending where
    the identity [u]^p = lam sum|u|^q holds to near machine precision.
    """
    if lam <= 0:
        raise ValueError("the scalar sublinear problem needs lam > 0")
    q, cell = params.q, dom.cell
    face, zero = params.with_weights(lam, 0.0), np.zeros(dom.n_interior)

    def evaluate(x):
        k = plap_gradient(dom, x)
        kernels, powers = (k, zero), component_powers(face, x, zero)
        ray = ray_triple(face, dom, x, zero, kernels, powers)
        return k, ray, phi(ray, face, 1.0), gradient_arrays(face, dom, x, zero, kernels, powers)[:x.size]

    w0 = bump_field(dom)
    u = branch_root(evaluate(w0)[1], face, NPLUS) * w0
    k, ray, val, g = evaluate(u)
    scale0 = max(float(np.linalg.norm(g)), lam * cell * float(np.sum(np.abs(u) ** (q - 1.0))), 1e-300)

    for _ in range(60):
        gn = float(np.linalg.norm(g))
        if gn <= 1e-15 * scale0:
            break
        curv = lam * cell * (q - 1.0) * np.abs(u) ** (q - 2.0)

        def hess(d):  # k = plap_gradient(u) from the last accepted evaluation
            h = FD_STEP * float(np.linalg.norm(u)) / float(np.linalg.norm(d))
            return (plap_gradient(dom, u + h * d) - k) / h - curv * d

        d = _newton_cg(hess, g)
        # near the minimum an energy difference below the rounding of the
        # energy's two terms has no sign; the gradient norm decides there
        noise = 1e-13 * (abs(val) + 2.0 * ray.B / q)
        for s in 0.5 ** np.arange(40.0):
            trial = u + s * d
            if np.all(trial != 0.0):
                tk, tray, tval, tg = evaluate(trial)
                if tval < val or (tval <= val + noise and float(np.linalg.norm(tg)) < gn):
                    u, k, ray, val, g = trial, tk, tray, tval, tg
                    break
        else:
            break

    gn = float(np.linalg.norm(g))
    if gn > 1e-6 * scale0:
        raise ConvergenceError(
            f"scalar sublinear solve stalled with relative gradient {gn / scale0:.3e}",
            last_iterate=Field(u),
        )
    return Field(u), val


def semitrivial_tmax_check(params: ModelParams, dom: GridDomain, u1, w) -> float:
    """Deviation of t_max(u1, w) from ((a+b-q)/(a+b-p))^(1/(p-q)).

    Requires u1 stationary for the scalar problem with weight lam and w with
    weight mu: the gradient of J at (u1, 0) and at (0, w), relative to the
    size lam cell sum|u1|^(q-1) (mu for w) of its concave term, is at most
    STATIONARITY_RTOL.  Then each component's norm power equals its own
    weighted q-integral and the fibering formula collapses to the closed
    form (> 1).
    """
    if params.lam <= 0 or params.mu <= 0:
        raise ValueError("semitrivial check needs lam > 0 and mu > 0")
    p, q, ab = params.p, params.q, params.ab
    cell, n = dom.cell, dom.n_interior
    u1, w = as_values(u1), as_values(w)
    for name, x in (("u1", u1), ("w", w)):
        if not x.any():
            raise ZeroPairError(f"semitrivial check: {name} is the zero field, which has no fibering")
    kernels = plap_gradient(dom, np.stack([u1, w]))
    powers = component_powers(params, u1, w)
    # no coupling gradient on either face: J's gradient is dP/p - dB/q's u half at (u1, 0), its v half at (0, w)
    dP, dB, _ = triple_gradients(params, dom, u1, w, kernels, powers)
    g = dP / p - dB / q
    r1 = float(np.linalg.norm(g[:n])) / (params.lam * cell * float(np.sum(np.abs(u1) ** (q - 1.0))))
    r2 = float(np.linalg.norm(g[n:])) / (params.mu * cell * float(np.sum(np.abs(w) ** (q - 1.0))))
    if max(r1, r2) > STATIONARITY_RTOL:
        raise ConvergenceError(
            f"inputs are not stationary enough (relative gradients {r1:.3e}, {r2:.3e})"
        )
    tm = t_max(ray_triple(params, dom, u1, w, kernels, powers), params)  # reads P and B, each the faces' sum
    predicted = ((ab - q) / (ab - p)) ** (1.0 / (p - q))
    return abs(tm - predicted) / predicted
