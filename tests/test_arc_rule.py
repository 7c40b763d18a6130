"""Gauss-Legendre on the arcs of a d=1 set: Grams against the closed-form arc
integrals, and lambda_min against an extended-precision Toeplitz oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spherenorms as sn
from spherenorms.quadrature import arc_quadrature
from spherenorms.sets import arc_list


def _arc_gram(arcs: list[tuple[float, float]], L: int) -> np.ndarray:
    """Gram of the trigonometric basis over a disjoint arc union, by antiderivatives."""
    N = 2 * L + 1
    G = np.zeros((N, N))
    if not arcs or L < 0:
        return G

    def dS(m, a, b):
        # integral of cos(m t): sin(m t)/m, with the m=0 limit t
        m = np.asarray(m, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (np.sin(m * b) - np.sin(m * a)) / m
        return np.where(m == 0, b - a, out)

    def dC(m, a, b):
        # integral of sin(m t): -cos(m t)/m, zero in the m=0 limit
        m = np.asarray(m, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (np.cos(m * a) - np.cos(m * b)) / m
        return np.where(m == 0, 0.0, out)

    k = np.arange(1, L + 1)
    J, K = np.meshgrid(k, k, indexing="ij")
    cos_idx = 2 * k - 1
    sin_idx = 2 * k
    for s, ln in arcs:
        a, b = s, s + ln
        G[0, 0] += (b - a) / (2.0 * math.pi)
        if L >= 1:
            c_norm = 1.0 / (math.sqrt(2.0 * math.pi) * math.sqrt(math.pi))
            G[0, cos_idx] += c_norm * dS(k, a, b)
            G[0, sin_idx] += c_norm * dC(k, a, b)
            half_pi = 0.5 / math.pi
            G[np.ix_(cos_idx, cos_idx)] += half_pi * (dS(J - K, a, b) + dS(J + K, a, b))
            G[np.ix_(sin_idx, sin_idx)] += half_pi * (dS(J - K, a, b) - dS(J + K, a, b))
            CS = half_pi * (dC(K - J, a, b) + dC(K + J, a, b))
            G[np.ix_(cos_idx, sin_idx)] += CS
    G[1:, 0] = G[0, 1:]
    if L >= 1:
        G[np.ix_(sin_idx, cos_idx)] = G[np.ix_(cos_idx, sin_idx)].T
    return 0.5 * (G + G.T)


# unions of 1-3 arcs given as [start, end] rows; a start near pi wraps past it
_arc_rows = st.lists(
    st.tuples(st.floats(-math.pi, math.pi), st.floats(0.01, 2.0)).map(lambda r: [r[0], r[0] + r[1]]),
    min_size=1,
    max_size=3,
)
_arc_sets = st.one_of(
    _arc_rows.map(sn.Arcs),
    _arc_rows.map(lambda rows: sn.Complement(sn.Arcs(rows))),
    st.just(sn.FullSphere()),
    st.just(sn.EmptySet()),
)


@settings(max_examples=60, deadline=None)
@given(E=_arc_sets, L=st.integers(0, 128))
# a complement whose two inner arcs are ~2e-14 apart: the sliver between them is not part of the rule
@example(E=sn.Complement(sn.Arcs([[0.625, 1.625], [-2.031773221762772e-14, 0.6249999999999797]])), L=0)
def test_arc_rule_gram_matches_closed_form(E, L):
    rule = arc_quadrature(E, 2 * L)
    assert sn.membership(E, rule.nodes).all()
    G = sn.gram_matrix(E, sn.Lebesgue(), sn.BasisSpec(1, L))
    ref = _arc_gram(arc_list(E), L)
    assert np.abs(G - ref).max() <= 1e-13 * np.abs(ref).max()


def test_arc_rule_of_empty_set():
    rule = arc_quadrature(sn.EmptySet(), 16)
    assert rule.n_nodes == 0 and rule.nodes.shape == (0, 2)
    rep = sn.lambda_min(sn.EmptySet(), sn.Lebesgue(), 8, d=1)
    assert rep.lambda_min == 0.0
    assert math.isinf(rep.best_c2)


def _toeplitz_lambda_min_mp(a: float, L: int) -> mpmath.mpf:
    """lambda_min of the Gram of e^(ik t)/sqrt(2 pi), |k| <= L, over [-a, a]
    (entries sin((j-k)a)/(pi (j-k))), eigensolved at 60 digits."""
    with mpmath.workdps(60):
        a = mpmath.mpf(a)
        N = 2 * L + 1
        G = mpmath.matrix(N, N)
        for j in range(N):
            for k in range(N):
                G[j, k] = a / mpmath.pi if j == k else mpmath.sin((j - k) * a) / (mpmath.pi * (j - k))
        return min(mpmath.eigsy(G, eigvals_only=True))


@pytest.mark.parametrize("a, L", [(1.0, 12), (1.5, 8), (2.0, 16), (2.0, 24), (2.5, 32), (3.0, 16)])
def test_lambda_matches_extended_precision_toeplitz(a, L):
    ref = _toeplitz_lambda_min_mp(a, L)
    lam = sn.lambda_min(sn.Arcs([[-a, a]]), sn.Lebesgue(), L, d=1).lambda_min
    assert abs(math.sqrt(lam) - float(mpmath.sqrt(ref))) <= 1e-14
    if ref >= 1e-6:
        assert abs(lam - float(ref)) <= 1e-10 * float(ref)
