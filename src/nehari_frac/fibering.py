"""Fibering map along rays t (u, v), projection roots and branch classification.

For a nonzero state the ray energy reduces to three coefficients

    P = ||(u,v)||^p,   B = sum(lam|u|^q + mu|v|^q),   D = 2 sum|u|^a|v|^b,

so phi(t) = (t^p/p) P - (t^q/q) B - (t^(a+b)/(a+b)) D, and the auxiliary map
Psi(t) = t^(p-a-b) P - t^(q-a-b) B satisfies phi'(t) = t^(a+b-1) (Psi(t) - D):
stationary ray points are exactly the crossings of Psi with level D.  When
0 < D < Psi(t_max) there are two roots t1 < t_max < t2 with phi''(t1) > 0
(local minimum branch) and phi''(t2) < 0 (local maximum branch).
branch_root alone decides which of these roots a ray has and finds the one
asked for; project_triple reports both with the ray's outcome label.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .energy import ReducedTriple, ray_triple
from .errors import NehariFracError, ZeroPairError
from .grid import FieldPair, GridDomain, as_values
from .params import ModelParams

ROOT_RTOL = 1e-12
CLASSIFY_DEADBAND = 1e-8

NPLUS = "Nplus"
NMINUS = "Nminus"
NZERO = "Nzero"
OFF_MANIFOLD = "off_manifold"

TWO_ROOTS = "two_roots"
PLUS_ONLY = "plus_only"
MINUS_ONLY = "minus_only"
ABOVE_THRESHOLD = "above_threshold"
NO_ROOTS = "no_roots"


@dataclass(frozen=True)
class FiberingReport:
    triple: ReducedTriple
    outcome: str
    t_max: Optional[float]
    t1: Optional[float]
    t2: Optional[float]
    branch_energy_plus: Optional[float]
    branch_energy_minus: Optional[float]
    classification_at_1: str
    psi_at_tmax: Optional[float]

    def to_dict(self) -> dict:
        out = {"P": self.triple.P, "B": self.triple.B, "D": self.triple.D}
        out.update((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "triple")
        return out


def reduce_pair(params: ModelParams, dom: GridDomain, pair: FieldPair) -> ReducedTriple:
    """Lattice sums for (P, B, D); rejects the zero pair."""
    if not (np.any(as_values(pair.u)) or np.any(as_values(pair.v))):
        raise ZeroPairError("zero pair has no fibering")
    return ray_triple(params, dom, pair.u, pair.v)


def _check_t(t: float):
    if not t > 0:
        raise ValueError(f"fibering maps are defined for t > 0, got t = {t}")


def phi(triple: ReducedTriple, params: ModelParams, t: float) -> float:
    _check_t(t)
    ab = params.ab
    return (t ** params.p / params.p) * triple.P - (t ** params.q / params.q) * triple.B - (t ** ab / ab) * triple.D


def phi_prime(triple: ReducedTriple, params: ModelParams, t: float) -> float:
    _check_t(t)
    ab = params.ab
    return t ** (params.p - 1) * triple.P - t ** (params.q - 1) * triple.B - t ** (ab - 1) * triple.D


def phi_second(triple: ReducedTriple, params: ModelParams, t: float) -> float:
    _check_t(t)
    p, q, ab = params.p, params.q, params.ab
    return (
        (p - 1) * t ** (p - 2) * triple.P
        - (q - 1) * t ** (q - 2) * triple.B
        - (ab - 1) * t ** (ab - 2) * triple.D
    )


def psi(triple: ReducedTriple, params: ModelParams, t: float) -> float:
    _check_t(t)
    ab = params.ab
    return t ** (params.p - ab) * triple.P - t ** (params.q - ab) * triple.B


def t_max(triple: ReducedTriple, params: ModelParams) -> float:
    """Unique maximizer of Psi: ((a+b-q) B / ((a+b-p) P))^(1/(p-q))."""
    if triple.B <= 0:
        raise NehariFracError("Psi has no interior maximum when the concave integral vanishes")
    if triple.P <= 0:
        raise ZeroPairError("zero pair has no fibering")
    ab = params.ab
    return ((ab - params.q) * triple.B / ((ab - params.p) * triple.P)) ** (1.0 / (params.p - params.q))


def _root_newton(triple: ReducedTriple, params: ModelParams, lo: float, hi: float) -> float:
    """Safeguarded Newton for phi' = 0 in [lo, hi] (sign change required).

    From the midpoint, each point replaces the bracket end of its sign; the
    next is its Newton step on phi' (smooth for every p > 1), or the
    bracket's midpoint when that step leaves the bracket.  Stops at a step
    of at most ROOT_RTOL t (taken, and tested first: at the root phi' is
    rounding, whose sign must not send t back to the midpoint), at a bracket
    that narrow, or after 200 points.
    """
    flo = phi_prime(triple, params, lo)
    fhi = phi_prime(triple, params, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NehariFracError("root bracket does not straddle a sign change")
    t = 0.5 * (lo + hi)
    for _ in range(200):
        f = phi_prime(triple, params, t)
        if f == 0.0:
            return t
        if (f < 0.0) == (flo < 0.0):
            lo = t
        else:
            hi = t
        df = phi_second(triple, params, t)
        step = f / df if df != 0.0 else np.inf
        if abs(step) <= ROOT_RTOL * t:
            return t - step
        t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
        if hi - lo <= ROOT_RTOL * t:
            return t
    return t


def project(params: ModelParams, dom: GridDomain, pair: FieldPair) -> FiberingReport:
    """Locate the stationary ray scales of a nonzero state.

    Returns two roots when 0 < D < Psi(t_max); degenerate rays (B = 0 or
    D = 0) come back as single-root variants, and D >= Psi(t_max) reports
    the above-threshold outcome that mirrors a failed smallness condition.
    """
    triple = reduce_pair(params, dom, pair)
    return project_triple(triple, params, classification=classify_triple(triple, params))


def branch_root(triple: ReducedTriple, params: ModelParams, branch: str) -> Optional[float]:
    """The stationary scale of one branch on the ray, or None if it has none:
    the lower root t1 (ray minimum) for NPLUS, the upper root t2 (ray maximum)
    for NMINUS.  Only the requested root is searched for."""
    p, q, ab = params.p, params.q, params.ab
    P, B, D = triple.P, triple.B, triple.D
    plus = branch == NPLUS
    if P == 0.0 or (B == 0.0 and D == 0.0):
        return None
    if D == 0.0:
        # pure concave ray: phi' = t^(q-1) (t^(p-q) P - B), single minimum
        return (B / P) ** (1.0 / (p - q)) if plus else None
    if B == 0.0:
        # pure convex ray: single maximum
        return None if plus else (P / D) ** (1.0 / (ab - p))
    tm = t_max(triple, params)
    if not D < psi(triple, params, tm):
        return None
    # phi' < 0 below (B/P)^(1/(p-q)) and above (P/D)^(1/(a+b-p)); at those
    # points two of its three terms cancel exactly, so the brackets step past them
    if plus:
        return _root_newton(triple, params, 0.5 * (B / P) ** (1.0 / (p - q)), tm)
    return _root_newton(triple, params, tm, 2.0 * (P / D) ** (1.0 / (ab - p)))


def project_triple(triple: ReducedTriple, params: ModelParams, classification: str = OFF_MANIFOLD) -> FiberingReport:
    """Both branch roots of precomputed (P, B, D) with the ray's outcome; see project()."""
    t1 = branch_root(triple, params, NPLUS)
    t2 = branch_root(triple, params, NMINUS)
    tm = None if triple.B == 0.0 else t_max(triple, params)
    psi_tm = None if tm is None or triple.D == 0.0 else psi(triple, params, tm)
    no_root = NO_ROOTS if triple.B == 0.0 and triple.D == 0.0 else ABOVE_THRESHOLD
    outcome = {(True, True): TWO_ROOTS, (True, False): PLUS_ONLY, (False, True): MINUS_ONLY}.get(
        (t1 is not None, t2 is not None), no_root)
    return FiberingReport(
        triple=triple,
        outcome=outcome,
        t_max=tm,
        t1=t1,
        t2=t2,
        branch_energy_plus=None if t1 is None else phi(triple, params, t1),
        branch_energy_minus=None if t2 is None else phi(triple, params, t2),
        classification_at_1=classification,
        psi_at_tmax=psi_tm,
    )


def classify_triple(triple: ReducedTriple, params: ModelParams) -> str:
    """Trichotomy of a state by the sign of phi''(1) with a dead-band, after a
    membership check, from its (P, B, D); CLASSIFY_DEADBAND sets both."""
    if not triple.on_manifold(CLASSIFY_DEADBAND):
        return OFF_MANIFOLD
    second = phi_second(triple, params, 1.0)
    band = CLASSIFY_DEADBAND * triple.scale_second()
    if second > band:
        return NPLUS
    if second < -band:
        return NMINUS
    return NZERO


def sample_curves(triple: ReducedTriple, params: ModelParams, t_lo: float, t_hi: float, n_samples: int):
    """Sample (t, phi, phi', phi'', Psi) on a geometric t grid for plotting."""
    if not (t_lo > 0 and t_hi > t_lo):
        raise ValueError("need 0 < t_lo < t_hi")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    ts = np.geomspace(t_lo, t_hi, n_samples)
    rows = []
    for t in ts:
        t = float(t)
        rows.append(
            (
                t,
                phi(triple, params, t),
                phi_prime(triple, params, t),
                phi_second(triple, params, t),
                psi(triple, params, t),
            )
        )
    return rows
