"""The ring factors of the d=2 basis on a product rule against the dense
evaluation matrix they replace: the forward and adjoint maps, the adjoint
identity, the L^p adversary's objective against its dense form, and the
rules the factors refuse."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spherenorms as sn
from spherenorms import concentration
from spherenorms.basis import basis_matrix, ring_factors
from spherenorms.geometry import random_rotation
from spherenorms.measures import weight_values
from spherenorms.quadrature import QuadratureRule
from spherenorms.sets import membership

E2 = sn.random_cap_union(2, 12, 0.35, seed=4)
MU2 = sn.PowerDistanceWeight(2.0, np.array([0.0, 0.0, 1.0]))


def dense_pnorm_objective(B, a_full, a_masked, p):
    """The adversary's objective with the full evaluation matrix B, as it ran
    before the ring factors: the reference for the factored one."""
    def fun(c):
        v = B @ c
        av = np.abs(v)
        vp = av ** p
        num = a_masked @ vp
        den = a_full @ vp
        r = num / den
        dvp = p * av ** (p - 1.0) * np.sign(v)
        grad = (B.T @ (a_masked * dvp) - r * (B.T @ (a_full * dvp))) / den
        return r, grad

    return fun


def assert_close(got, want, rel):
    """Equal up to ``rel`` times the largest entry of ``want``."""
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rel * np.abs(want).max())


rule_cases = given(
    st.integers(0, 16),
    st.sampled_from([1.0, 4.0]),
    st.one_of(st.none(), st.floats(0.05, 2.0)),
    st.integers(0, 2**31 - 1),
)


@settings(max_examples=60, deadline=None)
@rule_cases
@example(12, 4.0, None, 0)  # the weighted-sphere benchmark rule: n_phi = 100
@example(7, 1.0, None, 1)  # n_phi = 15
@example(5, 1.0, 2.0 * math.pi / 40.5, 2)  # max_spacing sets n_phi = 41
@example(5, 1.0, 2.0 * math.pi / 63.5, 3)  # max_spacing sets n_phi = 64
def test_maps_match_dense_matrix(L, oversample, max_spacing, seed):
    rule = sn.build_quadrature(2, 2 * L, oversample=oversample, max_spacing=max_spacing)
    spec = sn.BasisSpec(2, L)
    B = basis_matrix(spec, rule.nodes)
    rings = ring_factors(spec, rule)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(B.shape[1])
    w = rng.standard_normal(B.shape[0])
    fc, aw = rings.forward(c), rings.adjoint(w)
    assert_close(fc, B @ c, 1e-13)
    assert_close(aw, B.T @ w, 1e-13)
    scale = np.linalg.norm(fc) * np.linalg.norm(w) + np.linalg.norm(c) * np.linalg.norm(aw)
    assert abs(fc @ w - c @ aw) <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@rule_cases
def test_objective_matches_dense_reference(L, oversample, max_spacing, seed):
    rule = sn.build_quadrature(2, 2 * L, oversample=oversample, max_spacing=max_spacing)
    spec = sn.BasisSpec(2, L)
    rng = np.random.default_rng(seed)
    E = sn.rotate(E2, random_rotation(2, rng))
    a_full = rule.weights * weight_values(MU2, rule.nodes)
    a_masked = a_full * membership(E, rule.nodes)
    p = float(rng.choice([1.5, 3.0, 4.0]))
    rings = ring_factors(spec, rule)
    fun = concentration._pnorm_objective(rings.forward, rings.adjoint, a_full, a_masked, p)
    ref = dense_pnorm_objective(basis_matrix(spec, rule.nodes), a_full, a_masked, p)
    c = rng.standard_normal(rings.slot.size)
    (r, g), (r_ref, g_ref) = fun(c), ref(c)
    assert r == pytest.approx(r_ref, rel=1e-12, abs=0.0)
    # the gradient is a difference of two terms of size about p r / |c|, which
    # cancel exactly when dim Pi_L = 1 (the ratio is scale-invariant)
    scale = max(np.abs(g_ref).max(), p * r_ref / np.linalg.norm(c))
    np.testing.assert_allclose(g, g_ref, rtol=0.0, atol=1e-12 * scale)


def test_sphere_search_evaluates_no_dense_basis(monkeypatch):
    # only the projection-kernel start evaluates the basis, at one point
    rule = concentration.default_rule(E2, 2, 6)
    sizes = []
    real_basis_matrix = concentration.basis_matrix

    def counted(spec, points):
        sizes.append(np.atleast_2d(points).shape[0])
        return real_basis_matrix(spec, points)

    monkeypatch.setattr(concentration, "basis_matrix", counted)
    rep = sn.worst_case_lp(E2, MU2, 6, p=4.0, restarts=3, seed=0, rule=rule, d=2)
    assert 0.0 < rep.value < 1.0
    assert sizes and max(sizes) <= rule.descriptor["n_t"]


def test_rules_without_ring_structure_are_refused():
    spec = sn.BasisSpec(2, 4)
    cap = sn.cap_quadrature(2, np.array([0.6, 0.0, 0.8]), 0.5)
    with pytest.raises(ValueError):
        sn.worst_case_lp(E2, MU2, 4, p=4.0, restarts=2, rule=cap, d=2)
    # a product rule turned away from the pole keeps its descriptor but not its rings
    rule = sn.build_quadrature(2, 8)
    R = random_rotation(2, np.random.default_rng(5))
    turned = QuadratureRule(2, rule.nodes @ R.T, rule.weights, 8, dict(rule.descriptor))
    with pytest.raises(ValueError):
        ring_factors(spec, turned)
    with pytest.raises(ValueError):
        ring_factors(sn.BasisSpec(1, 4), sn.build_quadrature(1, 8))
