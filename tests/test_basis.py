"""Orthonormal basis construction on S^1 and S^2."""

import math

import numpy as np
import pytest
import scipy.special

import spherenorms as sn


def test_constant_component():
    spec = sn.BasisSpec(2, 4)
    rng = np.random.default_rng(1)
    pts = sn.random_points(2, 20, rng)
    B = sn.basis_matrix(spec, pts)
    assert np.allclose(B[:, 0], 1.0 / math.sqrt(4 * math.pi))


def test_circle_basis_explicit():
    theta = 0.9
    pt = np.array([[math.cos(theta), math.sin(theta)]])
    spec = sn.BasisSpec(1, 2)
    row = sn.basis_matrix(spec, pt)[0]
    inv = 1.0 / math.sqrt(math.pi)
    expected = [
        1.0 / math.sqrt(2 * math.pi),
        math.cos(theta) * inv,
        math.sin(theta) * inv,
        math.cos(2 * theta) * inv,
        math.sin(2 * theta) * inv,
    ]
    assert np.allclose(row, expected, atol=1e-14)


def test_orthonormal_both_dimensions():
    for d, L in ((1, 24), (2, 12)):
        spec = sn.BasisSpec(d, L)
        rule = sn.build_quadrature(d, 2 * L)
        B = sn.basis_matrix(spec, rule.nodes)
        G = (B * rule.weights[:, None]).T @ B
        assert np.abs(G - np.eye(G.shape[0])).max() < 1e-12


def test_addition_theorem():
    # the squared basis sum at any point is the kernel diagonal
    rng = np.random.default_rng(2)
    for d in (1, 2):
        spec = sn.BasisSpec(d, 9)
        pts = sn.random_points(d, 40, rng)
        sums = (sn.basis_matrix(spec, pts) ** 2).sum(axis=1)
        expected = sn.dim_pi(d, 9) / sn.sphere_measure(d)
        assert np.abs(sums - expected).max() < 1e-10


def test_basis_eval_single_point():
    spec = sn.BasisSpec(2, 5)
    u = sn.north_pole(2)
    row = sn.basis_eval(spec, u)
    assert row.shape == (36,)
    assert row[0] == pytest.approx(1.0 / math.sqrt(4 * math.pi))


def test_wrong_dimension_rejected():
    spec = sn.BasisSpec(2, 3)
    with pytest.raises(ValueError):
        sn.basis_matrix(spec, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        sn.BasisSpec(3, 2)


@pytest.mark.skipif(not hasattr(scipy.special, "assoc_legendre_p_all"),
                    reason="scipy.special.assoc_legendre_p_all needs SciPy 1.15")
@pytest.mark.parametrize("L", [0, 1, 7, 20, 40])
def test_assoc_legendre_matches_scipy(L):
    # SciPy's fully normalized table integrates to 1 over [-1, 1] and carries
    # the Condon-Shortley sign; ours integrates to 1 over the sphere without it.
    # Interior points only: at x = 1 SciPy 1.17.1 returns 1.0 for every l.
    x = np.concatenate([np.linspace(-0.999, 0.999, 41), [0.0, 0.5, -0.9999]])
    P = sn.normalized_assoc_legendre(L, x)
    ref = scipy.special.assoc_legendre_p_all(L, L, x, norm=True)[0, :, : L + 1]
    sign = (-1.0) ** np.arange(L + 1)
    want = ref * sign[None, :, None] / math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(P, want, rtol=0.0, atol=5e-13)


@pytest.mark.parametrize("L", [0, 1, 5, 16])
def test_sphere_basis_columns_are_legendre_table_times_trig(L):
    # basis_matrix and normalized_assoc_legendre share one recurrence, so the
    # columns equal the table's entries times the trig factors bit for bit
    pts = sn.random_points(2, 300, np.random.default_rng(L))
    pts[:2] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    B = sn.basis_matrix(sn.BasisSpec(2, L), pts)
    P = sn.normalized_assoc_legendre(L, pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    sqrt2 = math.sqrt(2.0)
    for l in range(L + 1):
        np.testing.assert_array_equal(B[:, l * l], P[l, 0])
        for m in range(1, l + 1):
            np.testing.assert_array_equal(B[:, l * l + 2 * m - 1], sqrt2 * P[l, m] * np.cos(m * phi))
            np.testing.assert_array_equal(B[:, l * l + 2 * m], sqrt2 * P[l, m] * np.sin(m * phi))
