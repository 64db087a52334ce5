"""The ray coefficients (P, B, D) of the functional J and their gradient assembly.

J(u, v) = (1/p)||(u,v)||^p - (1/q) sum(lam |u|^q + mu |v|^q)
          - (2/(alpha+beta)) sum |u|^alpha |v|^beta,

with lattice sums weighted by the node cell h^n (GridDomain.cell); J itself
is fibering.phi(ray_triple(...), params, 1).  The first variation is assembled
once per state as a pair of gradient vectors; pairing a test state is a plain
dot product with them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridDomain, as_values, plap_gradient, signed_pow
from .params import ModelParams


@dataclass(frozen=True)
class ReducedTriple:
    """Ray coefficients (P, B, D) of a state: J along the ray t (u, v) is
    (t^p/p) P - (t^q/q) B - (t^(a+b)/(a+b)) D."""

    P: float
    B: float
    D: float

    def scale_second(self) -> float:
        """Magnitude scale for phi''(1) built from term sizes; used for dead-bands."""
        return self.P + self.B + self.D

    def scaled(self, t: float, params: ModelParams) -> "ReducedTriple":
        """Coefficients of the state t (u, v)."""
        return ReducedTriple(self.P * t ** params.p, self.B * t ** params.q, self.D * t ** params.ab)

    @property
    def constraint(self) -> float:
        """The Nehari constraint P - B - D."""
        return self.P - self.B - self.D

    def on_manifold(self, tol: float) -> bool:
        """Membership test |P - B - D| <= tol P."""
        return abs(self.constraint) <= tol * self.P


def ray_triple(params: ModelParams, dom: GridDomain, u, v, kernels=None) -> ReducedTriple:
    """Lattice sums P = ||(u,v)||^p, B = sum(lam|u|^q + mu|v|^q), D = 2 sum|u|^a|v|^b
    of two Fields or value arrays.

    P is u . plap_gradient(u) + v . plap_gradient(v); kernels may pass in
    those two vectors to save their kernel passes.
    """
    u, v = as_values(u), as_values(v)
    ku, kv = kernels if kernels is not None else (plap_gradient(dom, u), plap_gradient(dom, v))
    P = float(np.dot(u, ku)) + float(np.dot(v, kv))
    cell = dom.cell
    au = np.abs(u)
    av = np.abs(v)
    B = cell * float(np.sum(params.lam * au ** params.q + params.mu * av ** params.q))
    D = 2.0 * cell * float(np.sum(au ** params.alpha * av ** params.beta))
    return ReducedTriple(P, B, D)


def triple_gradients(params: ModelParams, dom: GridDomain, u, v, kernels=None):
    """Gradients (dP, dB, dD) of the ray coefficients of ray_triple over the
    stacked state (u, v); kernels as in ray_triple."""
    u, v = as_values(u), as_values(v)
    ku, kv = kernels if kernels is not None else (plap_gradient(dom, u), plap_gradient(dom, v))
    cell = dom.cell
    a, b = params.alpha, params.beta
    dP = params.p * np.concatenate([ku, kv])
    dB = cell * params.q * np.concatenate(
        [params.lam * signed_pow(u, params.q - 1.0), params.mu * signed_pow(v, params.q - 1.0)]
    )
    dD = 2.0 * cell * np.concatenate(
        [a * signed_pow(u, a - 1.0) * np.abs(v) ** b, b * np.abs(u) ** a * signed_pow(v, b - 1.0)]
    )
    return dP, dB, dD


def gradient_arrays(params: ModelParams, dom: GridDomain, u: np.ndarray, v: np.ndarray, kernels=None):
    """(dJ/du, dJ/dv) on raw value arrays, dP/p - dB/q - dD/(a+b); kernels as in ray_triple."""
    dP, dB, dD = triple_gradients(params, dom, u, v, kernels)
    g = dP / params.p - dB / params.q - dD / params.ab
    return g[: g.size // 2], g[g.size // 2:]


def constraint_gradient_arrays(params: ModelParams, dom: GridDomain, u: np.ndarray, v: np.ndarray, kernels=None):
    """Gradient of the Nehari constraint Q = P - B - D on raw value arrays; kernels as in ray_triple."""
    dP, dB, dD = triple_gradients(params, dom, u, v, kernels)
    q = dP - dB - dD
    return q[: q.size // 2], q[q.size // 2:]
