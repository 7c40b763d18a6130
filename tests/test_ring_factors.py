"""The ring factors of the d=2 basis on a product rule against the dense
evaluation matrix they replace: the forward and adjoint maps, the adjoint
identity, the weighted half-factor (whole rings, split by (order, cos|sin)
group, partial rings, and both merged) and its memory peak, the L^p
adversary's objective against its dense two-adjoint form (also on S^1) and
its one basis pass each way per evaluation, lambda_min against the streamed
node-block QR it replaced (one SVD per group on a polar cap, one dense SVD
otherwise), and the rules the factors refuse."""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import spherenorms as sn
from spherenorms import concentration
from spherenorms.acceptance import CONFIG_DENSE_NET
from spherenorms.basis import basis_matrix, ring_factors
from spherenorms.config import parse_config
from spherenorms.geometry import random_rotation
from spherenorms.measures import weight_values
from spherenorms.quadrature import QuadratureRule
from spherenorms.sets import membership, realize_family

E2 = sn.random_cap_union(2, 12, 0.35, seed=4)
MU2 = sn.PowerDistanceWeight(2.0, np.array([0.0, 0.0, 1.0]))
E1 = sn.random_cap_union(1, 5, 0.3, seed=4)
MU1 = sn.PowerDistanceWeight(2.0, np.array([0.0, 1.0]))


def dense_pnorm_objective(B, a_full, a_masked, p):
    """The adversary's objective with the full evaluation matrix B and two
    adjoint products, as it ran before the ring factors and the one-adjoint
    gradient: the reference for the objective in use."""
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


def streamed_factor(spec, rule, mu, mask=None, node_chunk=8192, qr_block=49152):
    """Upper-triangular R with R^T R = sum over the (masked) nodes of a Y Y^T,
    by QR merges of dense basis rows, blocks of ``node_chunk`` nodes at a time,
    as lambda_min built it before the ring-compressed half-factor: the
    reference for it."""
    N = sn.basis_dim(spec)
    R, pending, pending_rows = None, [], 0
    for i0 in range(0, rule.n_nodes, node_chunk):
        chunk = slice(i0, min(i0 + node_chunk, rule.n_nodes))
        a = rule.weights[chunk] * weight_values(mu, rule.nodes[chunk])
        pts = rule.nodes[chunk]
        if mask is not None:
            pts, a = pts[mask[chunk]], a[mask[chunk]]
        if pts.shape[0] == 0:
            continue
        pending.append(basis_matrix(spec, pts) * np.sqrt(a)[:, None])
        pending_rows += pending[-1].shape[0]
        if pending_rows >= qr_block:
            R = np.linalg.qr(np.vstack(pending if R is None else [R] + pending), mode="r")
            pending, pending_rows = [], 0
    if pending:
        R = np.linalg.qr(np.vstack(pending if R is None else [R] + pending), mode="r")
    if R is None:
        return np.zeros((N, N))
    return np.vstack([R, np.zeros((N - R.shape[0], N))])


def pencil_lambda(R_E, R_full):
    """sigma_min(R_E R_full^{-1})^2, the pencil's smallest eigenvalue from its half-factors."""
    T = scipy.linalg.solve_triangular(R_full, R_E.T, trans="T", lower=False).T
    return float(np.linalg.svd(T, compute_uv=False)[-1] ** 2)


def assert_close(got, want, rel, size=0.0):
    """Equal up to ``rel`` times the largest entry of ``want``, or times
    ``size`` where that is larger."""
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rel * max(np.abs(want).max(), size))


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
@example(0, 1.0, 1.25, 49820)  # dim Pi_0 = 1: the one adjoint sum cancels to 1.4e-3 of its size
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
    # when dim Pi_L = 1, B.T @ w is one sum of random-sign terms, which can
    # cancel far below its standard deviation |B[:, 0]| (w is standard normal);
    # there the bar is that typical size, not the realised value
    assert_close(aw, B.T @ w, 1e-13, size=np.linalg.norm(B) if B.shape[1] == 1 else 0.0)
    scale = np.linalg.norm(fc) * np.linalg.norm(w) + np.linalg.norm(c) * np.linalg.norm(aw)
    assert abs(fc @ w - c @ aw) <= 1e-13 * scale


POLE = np.array([0.0, 0.0, 1.0])


@settings(max_examples=40, deadline=None)
@rule_cases
@example(3, 1.0, 0.05, 4)  # 63 rings of <= 8 rows against dim Pi_3 = 16: a merge every 6 rings
@example(6, 1.0, 0.05, 5)  # 63 rings of <= 14 rows against dim Pi_6 = 49: a merge every 11 rings
@example(8, 4.0, None, 6)  # the polar cap of radius 2.0 at L=8: whole rings only
def test_half_factor_matches_dense_gram(L, oversample, max_spacing, seed):
    rule = sn.build_quadrature(2, 2 * L, oversample=oversample, max_spacing=max_spacing)
    spec = sn.BasisSpec(2, L)
    B = basis_matrix(spec, rule.nodes)
    rings = ring_factors(spec, rule)
    rng = np.random.default_rng(seed)
    E = sn.rotate(E2, random_rotation(2, rng))
    # MU2's pole is the rule's axis, so every ring has one weight
    a = rule.weights * weight_values(MU2, rule.nodes)
    n_t, n_phi = rule.descriptor["n_t"], rule.descriptor["n_phi"]
    emptied = membership(E, rule.nodes).reshape(n_t, n_phi)
    emptied[rng.integers(n_t)] = False  # a ring with no kept node
    # sets centred on the axis keep whole rings only; a small cap off the axis makes some rings partial
    polar = [sn.cap_set(POLE, 2.0), sn.Band(POLE, 0.8, 2.0), sn.Complement(sn.cap_set(POLE, 1.0))]
    merged = sn.CapUnion(np.stack([POLE, [0.8, 0.0, 0.6]]), np.array([1.0, 0.4]))
    coupling = rings.groups[:, None] != rings.groups
    for keep, whole in [(None, True), (membership(E, rule.nodes), False), (emptied.ravel(), False),
                        (np.zeros(rule.n_nodes, dtype=bool), True), (membership(merged, rule.nodes), False)] + [
                        (membership(P, rule.nodes), True) for P in polar]:
        R = rings.half_factor(a, keep)
        kept = np.ones(rule.n_nodes) if keep is None else keep
        G = B.T @ ((a * kept)[:, None] * B)
        assert R.shape == (B.shape[1], B.shape[1])
        assert np.array_equal(R, np.triu(R))
        if not kept.any():
            assert not R.any()
            continue
        assert_close(R.T @ R, G, 1e-13)
        if whole:
            # whole rings add to one (order, cos|sin) group each: no entry couples two
            assert not (R.T @ R)[coupling].any()


def test_half_factor_memory_stays_near_its_output():
    # 315 rings of 26 rows would stack 8,190 x 169 rows (11 MB) before one QR;
    # merged as they stream, the peak stays within the resource guard's
    # multiple of dim Pi_L^2 (one factor is 0.23 MB), the lift array and
    # O(n_nodes) weight arrays
    rule = sn.build_quadrature(2, 24, max_spacing=0.01)
    rings = ring_factors(sn.BasisSpec(2, 12), rule)
    N, n_t = rings.slot.size, rule.descriptor["n_t"]
    for keep in (None, membership(E2, rule.nodes)):
        tracemalloc.start()
        try:
            rings.half_factor(rule.weights, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (concentration._SQUARES * N * N + N * n_t + 2 * rule.n_nodes)


@pytest.mark.parametrize("config, L, svd_blocks", [
    (CONFIG_DENSE_NET, 8, 1),
    ("""
d: 2
L_list: [12]
family: {kind: random_caps, count: 24, radius: 0.35, seed: 0}
measure: {kind: power_distance, exponent: 2.0, pole: [0.0, 0.0, 1.0]}
functionals: [{name: eigen}]
""", 12, 1),
    # centred on the rule's axis: whole rings only, one SVD per (order, cos|sin) group
    ("""
d: 2
L_list: [8]
family: {kind: fixed, set: {kind: cap, center: [0.0, 0.0, 1.0], radius: 2.5}}
measure: {kind: lebesgue}
functionals: [{name: eigen}]
""", 8, 17),
], ids=["dense-net", "weighted-sphere", "polar-cap"])
def test_lambda_matches_streamed_factor(config, L, svd_blocks):
    cfg = parse_config(config)
    E = realize_family(cfg.family, 2, L)
    rule = cfg.sampling.rule(E, 2, 2 * L)
    spec = sn.BasisSpec(2, L)
    R_E = streamed_factor(spec, rule, cfg.measure, membership(E, rule.nodes))
    R_full = np.eye(len(R_E)) if isinstance(cfg.measure, sn.Lebesgue) else streamed_factor(spec, rule, cfg.measure)
    want = pencil_lambda(R_E, R_full)
    assert want >= 1e-6
    rep = sn.lambda_min(E, cfg.measure, L, rule=rule)
    assert rep.lambda_min == pytest.approx(want, rel=1e-13, abs=0.0)
    assert rep.diagnostics["svd_blocks"] == svd_blocks


def sin_columns(d, N):
    """The basis columns sin(m phi), m >= 1, in ``basis_matrix``'s order."""
    j = np.arange(N)
    i = j - np.floor(np.sqrt(j)).astype(int) ** 2 if d == 2 else j
    return (i > 0) & (i % 2 == 0)


@settings(max_examples=40, deadline=None)
@rule_cases
@example(12, 4.0, None, 0)  # the weighted-sphere benchmark rule: n_phi = 100
def test_objective_matches_dense_reference(L, oversample, max_spacing, seed):
    for d in (1, 2):
        rule = sn.build_quadrature(d, 2 * L, oversample=oversample, max_spacing=max_spacing)
        spec = sn.BasisSpec(d, L)
        rng = np.random.default_rng(seed)
        E, mu = (E2, MU2) if d == 2 else (E1, MU1)
        E = sn.rotate(E, random_rotation(d, rng))
        a_full = rule.weights * weight_values(mu, rule.nodes)
        a_masked = a_full * membership(E, rule.nodes)
        basis = concentration._node_basis(spec, rule)
        B = basis_matrix(spec, rule.nodes)
        cases = [(rng.standard_normal(B.shape[1]), basis)]
        if L > 0:
            # only sin(m phi) terms: zero on the phi = 0 nodes (node 0 of each ring).
            # With an even n_phi it is also rounding noise at phi = pi, where the
            # ring and dense maps round differently and |v|^(p-1) at p < 2 magnifies
            # that, so this vector is applied through B on both sides
            c = np.where(sin_columns(d, B.shape[1]), rng.standard_normal(B.shape[1]), 0.0)
            zeros = slice(None, None, rule.descriptor.get("n_phi", rule.n_nodes))
            assert not basis.forward(c)[zeros].any() and not (B @ c)[zeros].any()
            cases.append((c, SimpleNamespace(forward=lambda x: B @ x, adjoint=lambda w: B.T @ w)))
        for p in (1.0, 1.5, 3.0, 4.0):
            ref = dense_pnorm_objective(B, a_full, a_masked, p)
            for c, maps in cases:
                fun = concentration._pnorm_objective(maps.forward, maps.adjoint, a_full, a_masked, p)
                (r, g), (r_ref, g_ref) = fun(c), ref(c)
                assert r == pytest.approx(r_ref, rel=1e-12, abs=0.0)
                # the gradient is a difference of two terms of size about p r / |c|, which
                # cancel exactly when dim Pi_L = 1 (the ratio is scale-invariant)
                scale = max(np.abs(g_ref).max(), p * r_ref / np.linalg.norm(c))
                assert np.isfinite(g).all()
                np.testing.assert_allclose(g, g_ref, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize("d, p", [(1, 1.5), (2, 4.0)])
def test_objective_makes_one_basis_pass_each_way(monkeypatch, d, p):
    calls = {"fun": 0, "forward": 0, "adjoint": 0}
    real_objective = concentration._pnorm_objective

    def counted(name, f):
        def wrapped(x):
            calls[name] += 1
            return f(x)
        return wrapped

    def objective(forward, adjoint, a_full, a_masked, p):
        fun = real_objective(counted("forward", forward), counted("adjoint", adjoint), a_full, a_masked, p)
        return counted("fun", fun)

    monkeypatch.setattr(concentration, "_pnorm_objective", objective)
    E, mu = (E2, MU2) if d == 2 else (E1, MU1)
    rep = sn.worst_case_lp(E, mu, 6, p=p, restarts=3, seed=0, d=d)
    assert calls["fun"] == rep.evals > 0
    assert calls["forward"] == calls["adjoint"] == rep.evals


def test_sphere_functions_evaluate_no_dense_basis(monkeypatch):
    # only the adversary's projection-kernel start evaluates the basis, at one point
    L = 6
    rule = sn.Sampling().rule(E2, 2, 2 * L)
    spec = sn.BasisSpec(2, L)
    sizes = []
    real_basis_matrix = concentration.basis_matrix

    def counted(spec, points):
        sizes.append(np.atleast_2d(points).shape[0])
        return real_basis_matrix(spec, points)

    monkeypatch.setattr(concentration, "basis_matrix", counted)
    rep = sn.worst_case_lp(E2, MU2, L, p=4.0, restarts=3, seed=0, rule=rule, d=2)
    assert 0.0 < rep.value < 1.0
    assert sizes == [1]
    eig = sn.lambda_min(E2, MU2, L, rule=rule)
    sn.gram_matrix(E2, MU2, spec, rule)
    assert 0.0 < sn.lp_ratio(eig.witness, E2, MU2, 3.0, spec, rule) < 1.0
    assert sn.uncertainty_check(eig.witness, E2, spec, rule) > 1.0
    sn.worst_case_lp(E2, MU2, L, p=2.0, restarts=2, seed=0, rule=rule, d=2)
    assert sizes == [1]


def test_rules_without_ring_structure_are_refused():
    spec = sn.BasisSpec(2, 4)
    # a cap rule, labelled exact to degree 8 so that lambda_min's exactness check passes
    cap = replace(sn.cap_quadrature(2, np.array([0.6, 0.0, 0.8]), 0.5), exact_degree=8)
    # a product rule turned away from the pole keeps its descriptor but not its rings
    rule = sn.build_quadrature(2, 8)
    R = random_rotation(2, np.random.default_rng(5))
    turned = QuadratureRule(2, rule.nodes @ R.T, rule.weights, 8, dict(rule.descriptor))
    c = np.random.default_rng(6).standard_normal(sn.basis_dim(spec))
    for bad in (cap, turned):
        with pytest.raises(ValueError, match="product"):
            sn.worst_case_lp(E2, MU2, 4, p=4.0, restarts=2, rule=bad, d=2)
        with pytest.raises(ValueError, match="product"):
            sn.lambda_min(E2, MU2, 4, rule=bad)
        with pytest.raises(ValueError, match="product"):
            sn.gram_matrix(E2, MU2, spec, bad)
        with pytest.raises(ValueError, match="product"):
            sn.lp_ratio(c, E2, MU2, 3.0, spec, bad)
        with pytest.raises(ValueError, match="product"):
            sn.uncertainty_check(c, E2, spec, bad)
    with pytest.raises(ValueError):
        ring_factors(spec, turned)
    with pytest.raises(ValueError):
        ring_factors(sn.BasisSpec(1, 4), sn.build_quadrature(1, 8))
