"""The exact rule on a d=1 set -- the circle cut at the set's ends, Gauss-Legendre
on each piece, the nodes the set holds -- against closed-form arc integrals over
pieces found by the tests' own angle arithmetic, and lambda_min against an
extended-precision Toeplitz oracle."""

import math
import typing

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spherenorms as sn
from spherenorms import sets
from spherenorms.quadrature import arc_quadrature

TWO_PI = 2.0 * math.pi


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


def _rows(E) -> list[tuple[float, float]]:
    """E's arcs as (start, end) angles, read off its fields, not through the cap test."""
    if isinstance(E, sn.Arcs):
        return [(s, s + ln) for s, ln in E.intervals]
    if isinstance(E, sn.CapUnion):
        mid = np.arctan2(E.centers[:, 1], E.centers[:, 0])
        return list(zip(mid - E.radii, mid + E.radii))
    if isinstance(E, sn.Band):
        a = math.atan2(E.axis[1], E.axis[0])
        return [(a + E.lo, a + E.hi), (a - E.hi, a - E.lo)]
    if isinstance(E, sn.FullSphere):
        return [(0.0, TWO_PI)]
    if isinstance(E, sn.EmptySet):
        return []
    raise TypeError(f"no rows for {type(E).__name__}")


def _own_arcs(E) -> list[tuple[float, float]]:
    """E's disjoint arcs as (start, length): the circle cut at the ends of E's rows (of its inner
    set's, for a complement), keeping a piece when its midpoint lies in some row (in none)."""
    inside = not isinstance(E, sn.Complement)
    rows = _rows(E if inside else E.inner)
    cuts = np.unique(np.mod([end for row in rows for end in row], TWO_PI))
    ends = np.append(cuts, cuts[0] + TWO_PI) if cuts.size else np.array([0.0, TWO_PI])
    return [(a, b - a) for a, b in zip(ends[:-1], ends[1:])
            if any((0.5 * (a + b) - s) % TWO_PI <= e - s for s, e in rows) == inside]


def _gram_error(E, L) -> tuple[float, float]:
    """The largest entry of |G - G_ref| and of |G_ref|, G the Gram over E at degree L and G_ref its
    closed form over ``_own_arcs(E)``, once every node of E's rule is seen to lie in E."""
    rule = arc_quadrature(E, 2 * L)
    assert sn.membership(E, rule.nodes).all()
    assert rule.descriptor["n"] == rule.n_nodes
    ref = _arc_gram(_own_arcs(E), L)
    return np.abs(sn.gram_matrix(E, sn.Lebesgue(), sn.BasisSpec(1, L)) - ref).max(), np.abs(ref).max()


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
# a complement whose two inner arcs are ~2e-14 apart: the rule may keep nodes of the sliver between them
@example(E=sn.Complement(sn.Arcs([[0.625, 1.625], [-2.031773221762772e-14, 0.6249999999999797]])), L=0)
# a short arc, its largest Gram entries about 3e-15: cut a few ulps from its row's ends, its Gram misses the bound
@example(E=sn.Arcs([[-1.583168364898964, -1.573168364898964]]), L=3)
def test_arc_rule_gram_matches_closed_form(E, L):
    error, scale = _gram_error(E, L)
    assert error <= 1e-13 * scale


@settings(max_examples=80, deadline=None)
@given(start=st.floats(-math.pi, math.pi), lengths=st.tuples(st.floats(0.01, 2.5), st.floats(0.01, 2.5)),
       gap_exponent=st.floats(-16.0, -6.0), complement=st.booleans(), L=st.integers(0, 32))
def test_near_touching_arcs_keep_no_node_outside_the_set(start, lengths, gap_exponent, complement, L):
    # two arcs 1e-16 to 1e-6 apart: the Gauss-Legendre nodes of the gap sit within rounding of its ends,
    # where the cap test of a cap of radius r decides a node about 1e-16 / r from its edge either way;
    # the few end nodes it moves weigh about 1e-14, bounded here against the full circle's Gram, the identity
    first_end = start + lengths[0]
    second = first_end + 10.0 ** gap_exponent
    E = sn.Arcs([[start, first_end], [second, second + lengths[1]]])
    assert _gram_error(sn.Complement(E) if complement else E, L)[0] <= 1e-13


_AXIS = np.array([math.cos(0.7), math.sin(0.7)])
# every d=1 set kind, with the ends a cut can fall on: a band's pole ends, an arc past 2 pi, the whole circle
_KIND_EXAMPLES = {
    sn.CapUnion: [sn.CapUnion(np.array([[1.0, 0.0], [math.cos(2.5), math.sin(2.5)]]), np.array([0.4, 0.9])),
                  sn.CapUnion(np.array([[1.0, 0.0], [math.cos(0.5), math.sin(0.5)]]), np.array([0.3, 0.3]))],
    sn.Band: [sn.Band(_AXIS, 0.4, 1.3), sn.Band(_AXIS, 0.0, 0.9), sn.Band(_AXIS, 1.1, math.pi)],
    sn.Arcs: [sn.Arcs([[-1.2, 1.2], [2.0, 3.4]]), sn.Arcs([[5.9, 6.9]]), sn.Arcs([[1.0, 1.0 + TWO_PI]])],
    sn.FullSphere: [sn.FullSphere()],
    sn.EmptySet: [sn.EmptySet()],
}
_KIND_EXAMPLES[sn.Complement] = [sn.Complement(E) for examples in _KIND_EXAMPLES.values() for E in examples]


@pytest.mark.parametrize("kind", typing.get_args(sets.SetSpec), ids=lambda kind: kind.kind)
def test_every_kind_is_cut_where_its_arcs_end(kind):
    rng = np.random.default_rng(11)
    turn = sn.random_rotation(1, rng)
    for E in _KIND_EXAMPLES[kind]:
        for L in (0, 5, 24):
            error, scale = _gram_error(E, L)
            assert error <= 1e-13 * scale
        tiled = arc_quadrature(E, 16).weights.sum() + arc_quadrature(sn.Complement(E), 16).weights.sum()
        assert tiled == pytest.approx(TWO_PI, abs=1e-12)
        lam = sn.lambda_min(E, sn.Lebesgue(), 6, d=1).lambda_min
        for R in (turn, turn @ np.diag([1.0, -1.0])):
            image = sn.lambda_min(sets.rotate(E, R), sn.Lebesgue(), 6, d=1).lambda_min
            if lam >= 1e-6:
                assert image == pytest.approx(lam, rel=1e-12, abs=0.0)


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
