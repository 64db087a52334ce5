"""Uniform lattice domain with the singular pair kernel, fields, norms and forms.

The continuum object is the Gagliardo seminorm over Q = R^2n minus
(complement x complement); here Omega is sampled by an interior lattice and
its complement by a finite collar on which every field vanishes.  Pair
weights are the midpoint-rule kernel h^2n / |x_i - x_j|^(n + p s) with the
diagonal excluded.  Interior-collar pairs are aggregated per interior node
into a single zero-extension weight (exact, because collar values are pinned
to zero) by one lattice convolution.  At p = 2 a kernel pass is a pruned
FFT convolution of a stack of fields; for p != 2 the interior weights are
stored as upper-triangle slabs (a, b, W[a:b, a:]) of the N x N weight matrix
(0 on and below the diagonal) and a pass forms each slab's differences as a
rank-2 matrix product and its sums as matrix-vector products.  The kernel
normalization constant is fixed to 1; every identity used downstream is
invariant under that choice.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLargeError
from .params import ModelParams

# A p != 2 weight slab holds as many rows as fit SLAB_ELEMENTS float64 weights, at least
# one (256 kB; 2^14 gave slower passes at m = 28 and 40, 2^16 no faster one at m = 20-40).
# It also sizes radial_quad's blocks of SLAB_ELEMENTS // G outer nodes, 14 at the G = 2,190 nodes
# of its joint unit rule. The six desk-bubble gagliardo_pow_quad calls of a quadrature scan
# (eps = delta/4 ... delta/128), in-process medians of 11 runs on a 2-core Xeon (2 MiB L2 per core,
# one BLAS thread): 2^13 0.140 s, 2^14 0.124 s, 2^15 0.122 s, 2^16 0.217 s, 2^17 0.224 s.
# Building peaks at the stored slabs plus SLAB_TEMP_BYTES per weight of one slab (two float64
# temporaries and a bool mask; tracemalloc: 13-16 B) and may use half the physical memory.
SLAB_ELEMENTS = 2 ** 15
SLAB_TEMP_BYTES = 17
PAIR_BUDGET_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2
# A p = 2 pass transforms as many fields at once as keep their spectra within
# FFT_BATCH_BYTES, at least one: larger batches ran up to 40% slower per field
# (2-core Xeon, numpy 2.4, m = 20-80; smaller ones lose the batching gain).
FFT_BATCH_BYTES = 3 * 2 ** 16


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
    slabs: tuple | None         # p != 2: (a, b, W) with W[r, c] the weight of pair (a + r, a + c), 0 for c <= r
    collar_w: np.ndarray        # (N,) float64, sum of kernel weights into the collar
    kernel_hat: np.ndarray | None = None    # p = 2: rfftn of the kernel on the (L,)*dim lattice, L = fft_side(m)
    box_index: np.ndarray | None = None     # p = 2: flat position of each interior node in the (m,)*dim block
    diag: np.ndarray | None = None          # p = 2: collar_w + K * 1_interior

    @property
    def n_interior(self) -> int:
        return self.interior.shape[0]

    @property
    def n_collar(self) -> int:
        return self.collar.shape[0]

    @property
    def cell(self) -> float:
        """Volume h^dim of one node's cell: the weight of every lattice sum."""
        return self.h ** self.dim

    @property
    def volume(self) -> float:
        """Lattice measure of the domain: cell times the interior node count."""
        return self.cell * self.n_interior

    @property
    def n_pairs(self) -> int:
        return 0 if self.slabs is None else self.n_interior * (self.n_interior - 1) // 2

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


@dataclass(frozen=True)
class FieldPair:
    """A state (u, v); both components share one domain."""

    u: Field
    v: Field

    def __post_init__(self):
        if self.u.values.shape != self.v.values.shape:
            raise ValueError("pair components must live on the same domain")


def as_values(u) -> np.ndarray:
    """Accept a Field or a bare array and return the float64 value vector."""
    v = getattr(u, "values", u)
    return np.asarray(v, dtype=np.float64)


def fft_side(m: int) -> int:
    """Side L of the p = 2 FFT lattice: the smallest L >= 2m - 1, which is
    wrap-free for interior offsets up to m - 1, with no prime factor above 7
    (a fast FFT length); such an L < 2^64 is one that divides 210^64."""
    side = 2 * m - 1
    while 210 ** 64 % side:
        side += 1
    return side


def _check_len(dom: GridDomain, v: np.ndarray):
    if v.shape != (dom.n_interior,):
        raise ValueError(f"field has {v.shape[0] if v.ndim == 1 else v.shape} values, domain has {dom.n_interior} interior nodes")


def _lattice(m: int, width: int, dim: int, shape: str):
    """Integer indices k of the sampled box, -width <= k_i <= m + 1 + width, and which are interior,
    decided exactly in integers: 1 <= k_i <= m (box), sum (2 k_i - m - 1)^2 < (m + 1)^2 (ball)."""
    axes = [np.arange(-width, m + 2 + width, dtype=np.int64)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    k = np.stack([a.ravel() for a in mesh], axis=1)
    if shape == "box":
        return k, np.all((k >= 1) & (k <= m), axis=1)
    return k, np.sum((2 * k - m - 1) ** 2, axis=1) < (m + 1) ** 2


def _slab_bounds(n: int) -> list:
    """Row ranges [a, b) of the slabs: as many rows of width n - a as fit SLAB_ELEMENTS, at least one."""
    cuts = [0]
    while cuts[-1] < n - 1:
        cuts.append(min(n - 1, cuts[-1] + max(1, SLAB_ELEMENTS // (n - cuts[-1]))))
    return list(zip(cuts, cuts[1:]))


def slab_build_bytes(n: int) -> int:
    """Peak bytes of building the slabs of n nodes: stored slabs plus the largest one's temporaries."""
    sizes = [(b - a) * (n - a) for a, b in _slab_bounds(n)] or [0]
    return 8 * sum(sizes) + SLAB_TEMP_BYTES * max(sizes)


def _weight_slabs(coords: np.ndarray, kernel_exp: float, h: float, dim: int) -> tuple:
    """The weights h^2n / d^(n + ps) of the interior pairs as slabs (a, b, W[a:b, a:])."""
    slabs = []
    for a, b in _slab_bounds(coords.shape[0]):
        w = np.zeros((b - a, coords.shape[0] - a))
        for k in range(dim):  # the squared distance, summed in norm's order
            w += np.square(coords[a:b, None, k] - coords[None, a:, k])
        w[np.tri(*w.shape, dtype=bool)] = np.inf  # the diagonal and below get weight 0
        np.divide(h ** (2 * dim), np.power(np.sqrt(w, out=w), kernel_exp, out=w), out=w)
        slabs.append((a, b, w))
    return tuple(slabs)


def _kernel_hat(shape: tuple, h: float, kernel_exp: float) -> np.ndarray:
    """rfftn of the kernel h^2dim / |k h|^kernel_exp (0 at k = 0) on the
    periodic lattice `shape`; a product with it is the linear convolution
    wherever every offset in play is below half the period on each axis."""
    k = np.sqrt(sum(np.minimum(a, size - a) ** 2.0 for a, size in zip(np.indices(shape), shape)))
    k.flat[0] = np.inf  # no self pair
    return np.fft.rfftn(h ** (2 * len(shape)) / (h * k) ** kernel_exp, axes=tuple(range(len(shape))))


def _convolve(kernel_hat: np.ndarray, block: np.ndarray, side: int) -> np.ndarray:
    """irfftn(rfftn(b padded with zeros to side per axis) * kernel_hat), cut
    back to b's shape, for each cube b = block[i], bit for bit: the same 1-D
    transforms in rfftn's and irfftn's order, but none over a line that holds
    only zeros or is cut away (numpy pads each line to side)."""
    dim, keep = block.ndim - 1, block.shape[-1]
    a = np.fft.rfft(block, n=side)
    for axis in range(dim - 1, 0, -1):
        a = np.fft.fft(a, n=side, axis=axis)
    a *= kernel_hat
    for axis in range(1, dim):
        a = np.fft.ifft(a, axis=axis)[(slice(None),) * axis + (slice(keep),)]
    return np.fft.irfft(a, n=side)[..., :keep]


def build_grid(
    n: int,
    m: int,
    box_length: float,
    collar_factor: float,
    params: ModelParams,
    shape: str = "box",
) -> GridDomain:
    """Build the lattice domain for dimension n with m interior nodes per axis.

    Interior nodes fill the open box (0, L)^n at spacing h = L/(m+1); the
    collar fills the shell of width collar_factor*L around the box (tail error
    of the truncated exterior integral scales like that width^(-p s) and is
    not corrected).  shape="ball" restricts the interior to the inscribed
    open ball; everything else in the sampled region becomes collar.  For
    p != 2, GridTooLargeError when building the weight slabs would need more
    than PAIR_BUDGET_BYTES.
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
    k, inside = _lattice(m, width, n, shape)
    coords = k * h
    interior = coords[inside]
    collar = coords[~inside]

    n_int = interior.shape[0]
    need = slab_build_bytes(n_int)
    if params.p != 2.0 and need > PAIR_BUDGET_BYTES:
        raise GridTooLargeError(
            f"grid too large: building the weight slabs of {n_int} interior nodes needs about "
            f"{need / 1e9:.3g} GB, over the budget of {PAIR_BUDGET_BYTES / 1e9:.3g} GB"
        )

    kernel_exp = n + params.p * params.s
    # sampled-box index of each interior node; offsets from there into the
    # sampled box reach m + width per axis, so period 2 (m + width + 1) is wrap-free
    sampled = (1,) + (m + 2 + 2 * width,) * n
    at = np.nonzero(inside.reshape(sampled)[0])
    side = 2 * (m + width + 1)
    hat = _kernel_hat((side,) * n, h, kernel_exp)
    cw = _convolve(hat, (~inside).reshape(sampled).astype(float), side)[0][at]

    fft = {}
    if params.p == 2.0:
        fft = {"kernel_hat": _kernel_hat((fft_side(m),) * n, h, kernel_exp),
               "diag": cw + _convolve(hat, inside.reshape(sampled).astype(float), side)[0][at],
               "box_index": np.ravel_multi_index(tuple(a - 1 - width for a in at), (m,) * n)}

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
        slabs=None if fft else _weight_slabs(interior, kernel_exp, h, n),
        collar_w=cw,
        **fft,
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
    return float(dom.cell * np.sum(np.abs(v) ** r)) ** (1.0 / r)


def plap_gradient(dom: GridDomain, u) -> np.ndarray:
    """Vector of A(u, e_k) over canonical basis fields e_k, assembled in one
    pass, for one field u (N,) or for each row of a stack u (k, N).  A is the
    form sum over pairs of w |du|^(p-2) du dphi, so A(u, phi) = phi . g and
    [u]^p = u . g for g = plap_gradient(u); pairs with u_i = u_j add exactly 0.

    At p = 2 it is diag * u - K * u, a pruned FFT convolution of as many
    rows at once as FFT_BATCH_BYTES allows, whose rounding error is of order
    eps * |diag * u| rather than eps times the result.  For p != 2, per row
    and slab, du = x[a:b, None] - x[None, a:] is the rank-2 product
    [x, 1][a:b] @ [1; -x][:, a:] (two exact products, one rounding: the
    difference bit for bit, up to the sign of a zero), then
    c = W sign(du) |du|^(p-1) in the same buffer pair; g[a:b] gains the row
    sums c @ 1 and g[a:] loses the column sums 1 @ c, added in the order of
    the BLAS kernel that OpenBLAS picks for the CPU type."""
    v = as_values(u)
    if v.ndim not in (1, 2) or v.shape[-1] != dom.n_interior:
        raise ValueError(f"fields of shape {v.shape}, domain has {dom.n_interior} interior nodes")
    rows = v.reshape(-1, dom.n_interior)
    if dom.kernel_hat is not None:
        block = np.zeros((rows.shape[0],) + (dom.m,) * dom.dim)
        block.reshape(rows.shape[0], -1)[:, dom.box_index] = rows
        batch = max(1, FFT_BATCH_BYTES // dom.kernel_hat.nbytes)  # one field's spectrum is kernel_hat's size
        conv = np.concatenate([_convolve(dom.kernel_hat, block[i:i + batch], fft_side(dom.m))
                               for i in range(0, rows.shape[0], batch)])
        return dom.diag * v - conv.reshape(rows.shape[0], -1)[:, dom.box_index].reshape(v.shape)
    g = dom.collar_w * signed_pow(rows, dom.p - 1.0)
    du_buf, c_buf = np.empty((2, max((w.size for _, _, w in dom.slabs), default=0)))
    left, right = np.ones((dom.n_interior, 2)), np.ones((2, dom.n_interior))
    ones = right[0]
    for x, gx in zip(rows, g):
        left[:, 0] = x
        np.negative(x, out=right[1])
        for a, b, w in dom.slabs:
            du = np.matmul(left[a:b], right[:, a:], out=du_buf[:w.size].reshape(w.shape))
            c = np.abs(du, out=c_buf[:w.size].reshape(w.shape))
            if dom.p == 3.0:
                np.multiply(c, du, out=c)  # |du| du, bit for bit signed_pow(du, 2)
            else:  # sign(du) |du|^(p-1), exactly 0 at du = 0 as in signed_pow
                np.copysign(np.power(c, dom.p - 1.0, out=c), du, out=c)
            np.multiply(c, w, out=c)
            gx[a:b] += c @ ones[a:]
            gx[a:] -= ones[a:b] @ c
    return g.reshape(v.shape)
