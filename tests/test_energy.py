import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nehari_frac as nf
from nehari_frac.energy import constraint_gradient_arrays, ray_triple
from nehari_frac.fibering import phi

from conftest import (
    DESK, energy, first_variation, gradient_pair, gradient_vector, nehari_constraint, pair_list, random_pair,
    scale_pair,
)


def manifold_energy_identity(params, dom, pair):
    """J rewritten for on-manifold states, the oracle of phi(triple, 1):
    ((1/p)-(1/(a+b))) ||(u,v)||^p - ((1/q)-(1/(a+b))) sum(lam|u|^q + mu|v|^q)."""
    t = ray_triple(params, dom, pair.u, pair.v)
    ab = params.ab
    return (1.0 / params.p - 1.0 / ab) * t.P - (1.0 / params.q - 1.0 / ab) * t.B


def test_package_energy_is_the_module():
    """J is fibering.phi at t = 1; the package exports no energy function
    that would shadow the energy module."""
    assert isinstance(nf.energy, types.ModuleType)
    assert nf.energy.ray_triple is ray_triple


def test_zero_pair_all_terms_zero(params, dom):
    zero = nf.Field(np.zeros(dom.n_interior))
    t = ray_triple(params, dom, zero, zero)
    assert (t.P, t.B, t.D, phi(t, params, 1.0)) == (0.0, 0.0, 0.0, 0.0)


def test_unweighted_semitrivial_reduces_to_gradient(dom):
    params0 = nf.ModelParams(**DESK)  # lam = mu = 0
    rng = np.random.default_rng(1)
    u = nf.Field(rng.standard_normal(dom.n_interior))
    t = ray_triple(params0, dom, u, nf.Field(np.zeros(dom.n_interior)))
    assert t.B == 0.0 and t.D == 0.0
    assert phi(t, params0, 1.0) == pytest.approx(nf.seminorm_p(dom, u) ** 2 / 2, rel=1e-14)


def test_energy_against_fsum_resummation(params, dom):
    """Independent extended-precision re-summation of all three terms."""
    pair = random_pair(dom, np.random.default_rng(2))
    u, v = pair.u.values, pair.v.values
    p, q, ab = params.p, params.q, params.ab
    cell = dom.cell

    pair_i, pair_j, pair_w = pair_list(dom)

    def sem_pow(w):
        terms = [float(wt) * abs(float(w[i]) - float(w[j])) ** p
                 for wt, i, j in zip(pair_w, pair_i, pair_j)]
        terms += [float(cw) * abs(float(x)) ** p for cw, x in zip(dom.collar_w, w)]
        return math.fsum(terms)

    grad = (sem_pow(u) + sem_pow(v)) / p
    concave = math.fsum(params.lam * cell * abs(float(x)) ** q for x in u)
    concave += math.fsum(params.mu * cell * abs(float(x)) ** q for x in v)
    concave /= q
    coupling = (2.0 / ab) * math.fsum(
        cell * abs(float(a)) ** params.alpha * abs(float(b)) ** params.beta for a, b in zip(u, v)
    )
    expected = grad - concave - coupling
    assert energy(params, dom, pair) == pytest.approx(expected, rel=1e-13)


def test_first_variation_zero_test(params, dom):
    pair = random_pair(dom, np.random.default_rng(3))
    zero = nf.Field(np.zeros(dom.n_interior))
    assert first_variation(params, dom, pair, nf.FieldPair(zero, zero)) == 0.0


def test_first_variation_linearity(params, dom):
    rng = np.random.default_rng(4)
    pair = random_pair(dom, rng)
    t1 = random_pair(dom, rng)
    t2 = random_pair(dom, rng)
    combined = nf.FieldPair(nf.Field(t1.u.values + t2.u.values), nf.Field(t1.v.values + t2.v.values))
    lhs = first_variation(params, dom, pair, combined)
    rhs = first_variation(params, dom, pair, t1) + first_variation(params, dom, pair, t2)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000))
def test_gradient_check_central_differences(seed):
    params = nf.ModelParams(**DESK, lam=0.7, mu=0.4)
    dom = nf.build_grid(2, 5, 1.0, 1.0, params)
    rng = np.random.default_rng(seed)
    pair = random_pair(dom, rng)
    test = random_pair(dom, rng)
    h = 1e-5

    def at(eps):
        shifted = nf.FieldPair(
            nf.Field(pair.u.values + eps * test.u.values),
            nf.Field(pair.v.values + eps * test.v.values),
        )
        return energy(params, dom, shifted)

    fd = (at(h) - at(-h)) / (2 * h)
    fv = first_variation(params, dom, pair, test)
    assert abs(fv - fd) / max(1.0, abs(fv)) <= 1e-6

    def q_at(eps):
        return nehari_constraint(params, dom, nf.FieldPair(
            nf.Field(pair.u.values + eps * test.u.values),
            nf.Field(pair.v.values + eps * test.v.values),
        ))

    qu, qv = np.split(constraint_gradient_arrays(params, dom, pair.u.values, pair.v.values), 2)
    qd = float(np.dot(qu, test.u.values) + np.dot(qv, test.v.values))
    fd = (q_at(h) - q_at(-h)) / (2 * h)
    assert abs(qd - fd) / max(1.0, abs(qd)) <= 1e-6


def test_gradient_vector_matches_basis_variations(params, dom):
    pair = random_pair(dom, np.random.default_rng(6))
    gv = gradient_vector(params, dom, pair)
    n = dom.n_interior
    zero = nf.Field(np.zeros(n))
    for k in (0, n // 2, n - 1):
        e = np.zeros(n)
        e[k] = 1.0
        basis_u = nf.FieldPair(nf.Field(e), zero)
        basis_v = nf.FieldPair(zero, nf.Field(e))
        assert first_variation(params, dom, pair, basis_u) == gv.u.values[k]
        assert first_variation(params, dom, pair, basis_v) == gv.v.values[k]


def test_gradient_zero_at_origin_without_weights(dom):
    params0 = nf.ModelParams(**DESK)
    zero = nf.Field(np.zeros(dom.n_interior))
    gv = gradient_vector(params0, dom, nf.FieldPair(zero, zero))
    assert np.all(gv.u.values == 0.0) and np.all(gv.v.values == 0.0)


def test_nehari_constraint_identities(params, dom):
    pair = random_pair(dom, np.random.default_rng(7))
    constraint = nehari_constraint(params, dom, pair)
    fv = first_variation(params, dom, pair, pair)
    assert constraint == pytest.approx(fv, rel=1e-12)
    zero = nf.Field(np.zeros(dom.n_interior))
    assert nehari_constraint(params, dom, nf.FieldPair(zero, zero)) == 0.0


def test_nehari_zero_after_projection(params, dom):
    pair = random_pair(dom, np.random.default_rng(8))
    rep = nf.project(params, dom, pair)
    assert rep.outcome == "two_roots"
    for t in (rep.t1, rep.t2):
        scaled = scale_pair(pair, t)
        value = nehari_constraint(params, dom, scaled)
        scale = nf.reduce_pair(params, dom, scaled).P
        assert abs(value) <= 1e-10 * scale


def test_manifold_energy_identity(params, dom):
    pair = random_pair(dom, np.random.default_rng(9))
    rep = nf.project(params, dom, pair)
    for t in (rep.t1, rep.t2):
        scaled = scale_pair(pair, t)
        total = energy(params, dom, scaled)
        assert total == pytest.approx(manifold_energy_identity(params, dom, scaled), rel=1e-10)


def test_sublinear_power_no_nan_at_zeros(params, dom):
    u = np.zeros(dom.n_interior)
    u[0] = 1.0
    pair = nf.FieldPair(nf.Field(u), nf.Field(np.zeros(dom.n_interior)))
    gu, gv = gradient_pair(params, dom, pair)
    assert np.all(np.isfinite(gu)) and np.all(np.isfinite(gv))
    assert math.isfinite(first_variation(params, dom, pair, pair))


def test_gradient_check_noninteger_p():
    params = nf.ModelParams(n=2, p=2.5, s=0.3, q=1.7, alpha=2.2, beta=2.1, lam=0.5, mu=0.9)
    dom = nf.build_grid(2, 4, 1.0, 1.0, params)
    rng = np.random.default_rng(101)
    pair = random_pair(dom, rng)
    test = random_pair(dom, rng)
    h = 1e-5

    def at(eps):
        shifted = nf.FieldPair(
            nf.Field(pair.u.values + eps * test.u.values),
            nf.Field(pair.v.values + eps * test.v.values),
        )
        return energy(params, dom, shifted)

    fd = (at(h) - at(-h)) / (2 * h)
    fv = first_variation(params, dom, pair, test)
    assert abs(fv - fd) / max(1.0, abs(fv)) <= 1e-6
