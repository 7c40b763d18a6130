"""Jacobi recurrence against the explicit hypergeometric sum, kernel identities,
and the oscillatory estimate."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spherenorms as sn
from spherenorms.errors import WindowError

mp.mp.dps = 50


def jacobi_series(n, a, b, x):
    """Independent oracle: finite hypergeometric sum in 50-digit arithmetic."""
    x = mp.mpf(x)
    a = mp.mpf(a)
    b = mp.mpf(b)
    total = mp.mpf(0)
    for s in range(n + 1):
        total += (
            mp.binomial(n + a, n - s)
            * mp.binomial(n + b, s)
            * ((x - 1) / 2) ** s
            * ((x + 1) / 2) ** (n - s)
        )
    return float(total)


def test_degree_zero_is_one():
    assert sn.jacobi_eval(0, 0.7, -0.3, 0.123) == 1.0
    assert sn.jacobi_eval(0, 2.0, 1.0, -1.0) == 1.0


def test_legendre_p2():
    # P_2(x) = (3x^2 - 1)/2
    assert sn.jacobi_eval(2, 0.0, 0.0, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_value_at_one_is_binomial():
    assert sn.jacobi_eval(3, 1.0, 0.0, 1.0) == pytest.approx(4.0, abs=1e-12)
    for n in range(31):
        expected = float(mp.binomial(n + 1.3, n))
        got = sn.jacobi_eval(n, 1.3, -0.4, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)


def test_against_series_frozen_value():
    # oracle value: jacobi_series(10, 1, 0, 0.3)
    assert sn.jacobi_eval(10, 1.0, 0.0, 0.3) == pytest.approx(0.236226319519921875, rel=1e-13)
    # half-integer indices as used on S^1
    assert sn.jacobi_eval(7, 0.5, -0.5, -0.2) == pytest.approx(0.17928714375, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=20),
    alpha=st.floats(min_value=-0.9, max_value=3.0),
    beta=st.floats(min_value=-0.9, max_value=3.0),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
def test_recurrence_matches_series(n, alpha, beta, x):
    expected = jacobi_series(n, alpha, beta, x)
    got = float(sn.jacobi_eval(n, alpha, beta, x))
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        sn.jacobi_eval(3, 0.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        sn.jacobi_eval(3, -1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        sn.jacobi_eval(-1, 0.0, 0.0, 0.5)


def test_dimensions():
    assert sn.dim_harmonic(2, 0) == 1
    assert sn.dim_harmonic(2, 2) == 5
    assert sn.dim_pi(2, 3) == 16
    assert sn.dim_pi(1, 5) == 11
    assert sn.dim_harmonic(1, 0) == 1
    assert sn.dim_harmonic(1, 4) == 2
    with pytest.raises(ValueError):
        sn.dim_harmonic(3, 1)
    with pytest.raises(ValueError):
        sn.dim_pi(0, 1)


def test_kernel_diagonal_from_explicit_basis():
    # oracle: sum over the explicit orthonormal basis of Pi_1 on S^2 at u = N:
    # (1/sqrt(4pi))^2 + 3 * (sqrt(3/4pi))^2 * cos^2-type terms summing to 4/(4 pi)
    ks = sn.kernel_spec(2, 1)
    explicit = 1.0 / (4 * math.pi) + 3.0 / (4 * math.pi)
    assert sn.reproducing_kernel(ks, 1.0) == pytest.approx(explicit, rel=1e-12)


def test_kernel_matches_basis_double_sum():
    rng = np.random.default_rng(7)
    spec = sn.BasisSpec(2, 8)
    ks = sn.kernel_spec(2, 8)
    u = sn.random_points(2, 200, rng)
    v = sn.random_points(2, 200, rng)
    lhs = (sn.basis_matrix(spec, u) * sn.basis_matrix(spec, v)).sum(axis=1)
    rhs = sn.reproducing_kernel(ks, np.clip((u * v).sum(axis=1), -1, 1))
    scale = sn.dim_pi(2, 8) / (4 * math.pi)
    assert np.abs(lhs - rhs).max() / scale < 1e-9


def test_kernel_dirichlet_form_on_circle():
    ks = sn.kernel_spec(1, 3)
    for theta in (0.3, 0.7, 2.0):
        expected = math.sin((3 + 0.5) * theta) / math.sin(theta / 2) / (2 * math.pi)
        assert sn.reproducing_kernel(ks, math.cos(theta)) == pytest.approx(expected, rel=1e-12)


def test_kernel_trace_identity():
    for d in (1, 2):
        for L in (0, 1, 5, 20):
            ks = sn.kernel_spec(d, L)
            trace = sn.reproducing_kernel(ks, 1.0) * sn.sphere_measure(d)
            assert trace == pytest.approx(sn.dim_pi(d, L), rel=1e-12)


def test_kernel_reproducing_property():
    # integral of K_L(u, v) Q(v) over the sphere recovers Q(u)
    rng = np.random.default_rng(3)
    L, d = 6, 2
    spec = sn.BasisSpec(d, L)
    ks = sn.kernel_spec(d, L)
    rule = sn.build_quadrature(d, 2 * L)
    coeffs = rng.standard_normal(sn.dim_pi(d, L))
    B = sn.basis_matrix(spec, rule.nodes)
    q_vals = B @ coeffs
    u = sn.random_points(d, 5, rng)
    for point in u:
        k_vals = sn.reproducing_kernel(ks, np.clip(rule.nodes @ point, -1, 1))
        integral = float(rule.weights @ (k_vals * q_vals))
        expected = float(sn.basis_matrix(spec, point[None, :])[0] @ coeffs)
        assert integral == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_kernel_diagonal_constant_in_u():
    rng = np.random.default_rng(11)
    spec = sn.BasisSpec(2, 12)
    pts = sn.random_points(2, 50, rng)
    diag = (sn.basis_matrix(spec, pts) ** 2).sum(axis=1)
    expected = sn.dim_pi(2, 12) / (4 * math.pi)
    assert np.abs(diag / expected - 1.0).max() < 1e-10


def test_szego_envelope_value():
    # lambda = 0 (S^2): k(pi/2) = 2/sqrt(pi)
    assert sn.szego_envelope(0.0, math.pi / 2) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)


def test_szego_window_error():
    L = 64
    with pytest.raises(WindowError):
        sn.szego_estimate(L, 0.0, 4.0 / (2 * L))
    with pytest.raises(WindowError):
        sn.szego_estimate(L, 0.0, math.pi - 1.0 / L)


def test_szego_error_bounded_by_envelope():
    # |P - main_term| <= K * envelope / (L sin theta) with a moderate K
    L = 128
    worst_K = 0.0
    for theta in np.linspace(math.pi / 4, 3 * math.pi / 4, 101):
        approx = sn.szego_estimate(L, 0.0, float(theta))
        exact = float(sn.jacobi_eval(L, 1.0, 0.0, math.cos(theta)))
        K = abs(exact - approx.main_term) * L * math.sin(theta) / approx.envelope
        worst_K = max(worst_K, K)
    assert worst_K < 10.0


def test_szego_normalized_error_stable_under_doubling():
    means = {}
    thetas = np.linspace(math.pi / 4, 3 * math.pi / 4, 101)
    for L in (64, 128):
        errs = []
        for theta in thetas:
            approx = sn.szego_estimate(L, 0.0, float(theta))
            exact = float(sn.jacobi_eval(L, 1.0, 0.0, math.cos(theta)))
            errs.append(abs(exact - approx.main_term) * L * math.sin(theta) * math.sqrt(L)
                        / sn.szego_envelope(0.0, float(theta)))
        means[L] = np.mean(errs)
    assert means[128] / means[64] <= 1.5


def test_peak_polynomial_values():
    N = sn.north_pole(2)
    for ell in (1, 2, 3):
        Q = sn.peak_polynomial(2, 16, ell, N)
        assert Q(N) == pytest.approx((16 + 1) ** ell, rel=1e-12)
        assert Q.degree == 16 * ell
    equator = np.array([1.0, 0.0, 0.0])
    Q2 = sn.peak_polynomial(2, 16, 2, N)
    assert Q2(equator) == pytest.approx(float(sn.jacobi_eval(16, 1.0, 0.0, 0.0)) ** 2, rel=1e-12)


def test_peak_polynomial_argmax_at_pole():
    N = sn.north_pole(2)
    Q = sn.peak_polynomial(2, 8, 2, N)
    grid = sn.candidate_centers(2, 96)
    vals = np.abs(Q(grid))
    best = grid[int(np.argmax(vals))]
    assert sn.geodesic_distance(best, N) < 0.1


def test_peak_polynomial_validation():
    with pytest.raises(ValueError):
        sn.peak_polynomial(2, 8, 0, sn.north_pole(2))
    with pytest.raises(ValueError):
        sn.peak_polynomial(2, 8, 1, np.array([0.0, 0.0, 2.0]))
