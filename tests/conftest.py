import numpy as np
import pytest

import nehari_frac as nf
from nehari_frac.energy import gradient_arrays, ray_triple
from nehari_frac.grid import as_values

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
    """Gradient vectors (dJ/du, dJ/dv); entry k equals the first variation
    against the k-th canonical basis pair."""
    return gradient_arrays(params, dom, as_values(pair.u), as_values(pair.v))


def gradient_vector(params, dom, pair):
    gu, gv = gradient_pair(params, dom, pair)
    return nf.FieldPair(nf.Field(gu), nf.Field(gv))


def first_variation(params, dom, pair, test):
    """<J'(u, v), (phi, psi)>."""
    gu, gv = gradient_pair(params, dom, pair)
    return float(np.dot(gu, as_values(test.u)) + np.dot(gv, as_values(test.v)))


def nehari_constraint(params, dom, pair):
    """||(u,v)||^p - sum(lam|u|^q + mu|v|^q) - 2 sum|u|^a|v|^b: zero exactly
    on the discrete Nehari manifold (and at the zero pair, which is excluded)."""
    return ray_triple(params, dom, pair.u, pair.v).constraint


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
