"""The ray coefficients (P, B, D) of the functional J and their gradient assembly.

J(u, v) = (1/p)||(u,v)||^p - (1/q) sum(lam |u|^q + mu |v|^q)
          - (2/(alpha+beta)) sum |u|^alpha |v|^beta,

with lattice sums weighted by the node cell h^n (GridDomain.cell); J itself
is fibering.phi(ray_triple(...), params, 1).  The first variation is assembled
once per state as one vector, u then v as in a raw (2N,) state; pairing a
test state is a plain dot product with it.  Every function here takes one
state (u, v) or a stack of states, one per row of two (k, N) arrays, and
reduces row by row: a descent round is one call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridDomain, as_values, plap_gradient, signed_pow
from .params import ModelParams


@dataclass(frozen=True)
class ReducedTriple:
    """Ray coefficients (P, B, D) of a state: J along the ray t (u, v) is
    (t^p/p) P - (t^q/q) B - (t^(a+b)/(a+b)) D.  Floats for one state, (k,)
    arrays for a stack."""

    P: float
    B: float
    D: float

    def scale_second(self) -> float:
        """Magnitude scale for phi''(1) built from term sizes; used for dead-bands."""
        return self.P + self.B + self.D

    @property
    def constraint(self) -> float:
        """The Nehari constraint P - B - D."""
        return self.P - self.B - self.D

    def on_manifold(self, tol: float) -> bool:
        """Membership test |P - B - D| <= tol P."""
        return abs(self.constraint) <= tol * self.P


def component_powers(params: ModelParams, u, v) -> tuple:
    """sign(x) |x|^(r-1) for r = q on u and v, alpha on u, beta on v: the
    gradient factors, and x times its factor is the value-side |x|^r.  Each
    r - 1 is > 0 (ModelParams), so zeros stay zero.  Passed as powers=, they
    are formed once for ray_triple and the gradients of the same states."""
    u, v = as_values(u), as_values(v)
    return (signed_pow(u, params.q - 1.0), signed_pow(v, params.q - 1.0),
            signed_pow(u, params.alpha - 1.0), signed_pow(v, params.beta - 1.0))


def _row_sums(x: np.ndarray):
    """The sum over the last axis: a float for one state, a (k,) array for a stack."""
    total = np.sum(x, axis=-1)
    return float(total) if x.ndim == 1 else total


def _inputs(params, dom, u, v, kernels, powers):
    """(u, v, their kernel rows, their powers), forming what is not passed in;
    missing kernel rows come from one plap_gradient call over the stacked (u, v)."""
    u, v = as_values(u), as_values(v)
    if kernels is None:
        kernels = plap_gradient(dom, np.stack([u, v]).reshape(-1, dom.n_interior)).reshape((2,) + u.shape)
    return u, v, kernels, powers if powers is not None else component_powers(params, u, v)


def ray_triple(params: ModelParams, dom: GridDomain, u, v, kernels=None, powers=None) -> ReducedTriple:
    """Lattice sums P = ||(u,v)||^p, B = sum(lam|u|^q + mu|v|^q), D = 2 sum|u|^a|v|^b
    of two Fields or value arrays, or of each row of two (k, N) stacks.

    P is u . plap_gradient(u) + v . plap_gradient(v); kernels may pass in
    those two vectors (stacks) to save their kernel passes, powers the
    component_powers of (u, v).
    """
    u, v, (ku, kv), (qu, qv, au, bv) = _inputs(params, dom, u, v, kernels, powers)
    P = _row_sums(u * ku + v * kv)
    B = dom.cell * _row_sums(params.lam * (qu * u) + params.mu * (qv * v))
    D = 2.0 * dom.cell * _row_sums((au * u) * (bv * v))
    return ReducedTriple(P, B, D)


def triple_gradients(params: ModelParams, dom: GridDomain, u, v, kernels=None, powers=None, t=1.0):
    """Gradients (dP, dB, dD) of the ray coefficients at the state t (u, v),
    u then v along the last axis; kernels and powers of (u, v) as in
    ray_triple.  As plap_gradient(t a) = t^(p-1) plap_gradient(a), each is a
    power of t times the gradient at (u, v): no power of t (u, v) and, given
    kernels, no kernel pass.  For stacks t is a scalar or a (k, 1) column.
    """
    u, v, (ku, kv), (qu, qv, au, bv) = _inputs(params, dom, u, v, kernels, powers)
    p, q, a, b = params.p, params.q, params.alpha, params.beta
    # scaled in place: on a round's stack, temporaries of its size set the peak memory
    dP = np.concatenate([ku, kv], axis=-1)
    dP *= p * t ** (p - 1.0)
    dB = np.concatenate([params.lam * qu, params.mu * qv], axis=-1)
    dB *= dom.cell * q * t ** (q - 1.0)
    dD = np.concatenate([a * au * (bv * v), b * (au * u) * bv], axis=-1)
    dD *= 2.0 * dom.cell * t ** (params.ab - 1.0)
    return dP, dB, dD


def gradient_arrays(params: ModelParams, dom: GridDomain, u, v, kernels=None, powers=None, t=1.0):
    """dJ = dP/p - dB/q - dD/(a+b) at t (u, v), u then v, as triple_gradients."""
    dP, dB, dD = triple_gradients(params, dom, u, v, kernels, powers, t)
    return dP / params.p - dB / params.q - dD / params.ab


def constraint_gradient_arrays(params: ModelParams, dom: GridDomain, u, v, kernels=None, powers=None):
    """Gradient of the Nehari constraint Q = P - B - D, as triple_gradients at t = 1."""
    dP, dB, dD = triple_gradients(params, dom, u, v, kernels, powers)
    return dP - dB - dD
