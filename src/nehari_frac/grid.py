"""Uniform lattice domain with the singular pair kernel, fields, norms and forms.

The continuum object is the Gagliardo seminorm over Q = R^2n minus
(complement x complement); here Omega is sampled by an interior lattice and
its complement by a finite collar on which every field vanishes.  Pair
weights are the midpoint-rule kernel h^2n / |x_i - x_j|^(n + p s) with the
diagonal excluded.  Interior-interior pairs are stored explicitly (unordered,
once); interior-collar pairs are aggregated per interior node into a single
zero-extension weight, which is exact because collar values are pinned to
zero.  The kernel normalization constant is fixed to 1; every identity used
downstream is invariant under that choice.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLargeError
from .params import ModelParams

DEFAULT_MAX_PAIRS = 200_000_000
_CHUNK = 4_000_000  # target element count for temporary distance blocks


def signed_pow(x, r):
    """sign(x) * |x|^r, elementwise; exactly 0 at x = 0 for r > 0.

    This is the limit convention for the integrand factors |t|^(r-1) t with
    r > 0, so p < 2 and q < 2 never produce NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.abs(x) ** r


@dataclass(frozen=True)
class GridDomain:
    """Discrete domain: interior/collar partition plus precomputed kernel weights."""

    dim: int
    m: int
    box_length: float
    collar_factor: float
    shape: str
    p: float
    s: float
    h: float
    interior: np.ndarray        # (N, dim) node coordinates
    collar: np.ndarray          # (M, dim) node coordinates, fields vanish here
    pair_i: np.ndarray          # (K,) int32, interior-interior pairs, pair_i < pair_j
    pair_j: np.ndarray          # (K,) int32
    pair_w: np.ndarray          # (K,) float64 kernel weights
    collar_w: np.ndarray        # (N,) float64, sum of kernel weights into the collar
    volume: float

    @property
    def n_interior(self) -> int:
        return self.interior.shape[0]

    @property
    def n_collar(self) -> int:
        return self.collar.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.pair_w.shape[0]

    def describe(self) -> dict:
        """Construction metadata; enough to rebuild the domain."""
        return {
            "dim": self.dim,
            "m": self.m,
            "box_length": self.box_length,
            "collar_factor": self.collar_factor,
            "shape": self.shape,
            "p": self.p,
            "s": self.s,
            "h": self.h,
            "n_interior": self.n_interior,
            "n_collar": self.n_collar,
        }

    def domain_hash(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class Field:
    """Real values on the interior nodes; zero extension outside is implicit."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("field values must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, dom: GridDomain) -> "Field":
        return cls(np.zeros(dom.n_interior))


@dataclass(frozen=True)
class FieldPair:
    """A state (u, v); both components share one domain."""

    u: Field
    v: Field

    def __post_init__(self):
        if self.u.values.shape != self.v.values.shape:
            raise ValueError("pair components must live on the same domain")

    @classmethod
    def zeros(cls, dom: GridDomain) -> "FieldPair":
        return cls(Field.zeros(dom), Field.zeros(dom))


def as_values(u) -> np.ndarray:
    """Accept a Field or a bare array and return the float64 value vector."""
    v = getattr(u, "values", u)
    return np.asarray(v, dtype=np.float64)


def _check_len(dom: GridDomain, v: np.ndarray):
    if v.shape != (dom.n_interior,):
        raise ValueError(f"field has {v.shape[0] if v.ndim == 1 else v.shape} values, domain has {dom.n_interior} interior nodes")


def _lattice_coords(lo: int, hi: int, dim: int, h: float) -> np.ndarray:
    axes = [np.arange(lo, hi + 1, dtype=np.int64)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    k = np.stack([a.ravel() for a in mesh], axis=1)
    return k * h


def _pair_weights(coords: np.ndarray, kernel_exp: float, h: float, dim: int):
    """All unordered pairs among coords with kernel weight h^2dim / d^kernel_exp."""
    n = coords.shape[0]
    ii, jj = np.triu_indices(n, k=1)
    d = np.linalg.norm(coords[ii] - coords[jj], axis=1)
    w = h ** (2 * dim) / d ** kernel_exp
    return ii.astype(np.int32), jj.astype(np.int32), w


def _collar_weights(interior: np.ndarray, collar: np.ndarray, kernel_exp: float, h: float, dim: int) -> np.ndarray:
    """Aggregated kernel weight from each interior node into the whole collar."""
    n = interior.shape[0]
    out = np.zeros(n)
    if collar.shape[0] == 0:
        return out
    rows = max(1, _CHUNK // collar.shape[0])
    scale = h ** (2 * dim)
    for start in range(0, n, rows):
        block = interior[start:start + rows]
        d = np.linalg.norm(block[:, None, :] - collar[None, :, :], axis=2)
        out[start:start + rows] = scale * np.sum(d ** (-kernel_exp), axis=1)
    return out


def build_grid(
    n: int,
    m: int,
    box_length: float,
    collar_factor: float,
    params: ModelParams,
    shape: str = "box",
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> GridDomain:
    """Build the lattice domain for dimension n with m interior nodes per axis.

    Interior nodes fill the open box (0, L)^n at spacing h = L/(m+1); the
    collar fills the shell of width collar_factor*L around the box (tail error
    of the truncated exterior integral scales like that width^(-p s) and is
    not corrected).  shape="ball" restricts the interior to the inscribed
    open ball; everything else in the sampled region becomes collar.
    """
    if n != params.n:
        raise ValueError(f"grid dimension {n} does not match params.n = {params.n}")
    if m < 2:
        raise ValueError("need at least m = 2 interior nodes per axis")
    if box_length <= 0:
        raise ValueError("box_length must be positive")
    if collar_factor < 1:
        raise ValueError("collar_factor must be at least 1")
    if shape not in ("box", "ball"):
        raise ValueError(f"unknown domain shape {shape!r}")

    h = box_length / (m + 1)
    width = int(np.floor(collar_factor * box_length / h + 1e-9))
    coords = _lattice_coords(-width, m + 1 + width, n, h)

    if shape == "box":
        inside = np.all((coords > 0.0) & (coords < box_length), axis=1)
    else:
        center = np.full(n, box_length / 2.0)
        inside = np.linalg.norm(coords - center, axis=1) < box_length / 2.0
    interior = coords[inside]
    collar = coords[~inside]

    n_int = interior.shape[0]
    n_pairs = n_int * (n_int - 1) // 2
    if n_pairs > max_pairs:
        raise GridTooLargeError(
            f"grid too large: {n_pairs} interior pairs exceed the cap of {max_pairs}"
        )

    kernel_exp = n + params.p * params.s
    pi, pj, pw = _pair_weights(interior, kernel_exp, h, n)
    cw = _collar_weights(interior, collar, kernel_exp, h, n)

    return GridDomain(
        dim=n,
        m=m,
        box_length=float(box_length),
        collar_factor=float(collar_factor),
        shape=shape,
        p=params.p,
        s=params.s,
        h=h,
        interior=interior,
        collar=collar,
        pair_i=pi,
        pair_j=pj,
        pair_w=pw,
        collar_w=cw,
        volume=h ** n * n_int,
    )


def seminorm_p(dom: GridDomain, u) -> float:
    """Discrete Gagliardo seminorm, [u]^p = u . plap_gradient(u) (collar pinned to 0)."""
    v = as_values(u)
    return float(np.dot(v, plap_gradient(dom, v))) ** (1.0 / dom.p)


def lr_norm(dom: GridDomain, u, r: float) -> float:
    """Lattice L^r norm (h^n sum |u_i|^r)^(1/r)."""
    if r < 1:
        raise ValueError("lr_norm needs r >= 1")
    v = as_values(u)
    _check_len(dom, v)
    return float(dom.h ** dom.dim * np.sum(np.abs(v) ** r)) ** (1.0 / r)


def a_form(dom: GridDomain, u, phi) -> float:
    """The form A(u, phi): pairwise |du|^(p-2) du dphi against the kernel,
    i.e. phi . plap_gradient(u).

    Satisfies a_form(u, u) = seminorm_p(u)^p; pairs with u_i = u_j contribute
    exactly zero for every p > 1.
    """
    pv = as_values(phi)
    _check_len(dom, pv)
    return float(np.dot(pv, plap_gradient(dom, u)))


def plap_gradient(dom: GridDomain, u) -> np.ndarray:
    """Vector of A(u, e_k) over canonical basis fields e_k, assembled in one pass."""
    v = as_values(u)
    _check_len(dom, v)
    du = v[dom.pair_i] - v[dom.pair_j]
    c = dom.pair_w * signed_pow(du, dom.p - 1.0)
    g = np.bincount(dom.pair_i, weights=c, minlength=dom.n_interior)
    g -= np.bincount(dom.pair_j, weights=c, minlength=dom.n_interior)
    g += dom.collar_w * signed_pow(v, dom.p - 1.0)
    return g


def pair_norm(dom: GridDomain, pair: FieldPair) -> float:
    """Product-space norm (seminorm_p(u)^p + seminorm_p(v)^p)^(1/p)."""
    return (seminorm_p(dom, pair.u) ** dom.p + seminorm_p(dom, pair.v) ** dom.p) ** (1.0 / dom.p)
