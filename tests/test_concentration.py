"""Concentration operators: Gram assembly, the eigenvalue pencil against
closed-form oracles, L^p ratios, the adversarial search, uncertainty and
sup-norm ratios."""

import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import spherenorms as sn
from spherenorms import concentration
from spherenorms.config import load_config
from spherenorms.errors import EmptyIntersectionError, ResourceLimitError

ROOT = Path(__file__).resolve().parents[1]


def toeplitz_gram(L, a):
    """Oracle: Gram of e^(ik t)/sqrt(2 pi) over [-a, a], entries sin((j-k)a)/(pi (j-k))."""
    k = np.arange(-L, L + 1)
    D = k[:, None] - k[None, :]
    safe = np.where(D == 0, 1, D)
    return np.where(D == 0, a / math.pi, np.sin(safe * a) / (math.pi * safe))


def test_gram_full_identity():
    for d, L in ((1, 12), (2, 6)):
        spec = sn.BasisSpec(d, L)
        rule = sn.build_quadrature(d, 2 * L)
        B = sn.basis_matrix(spec, rule.nodes)
        G = B.T @ (rule.weights[:, None] * B)
        assert np.abs(G - np.eye(G.shape[0])).max() < 1e-12


def test_gram_empty_zero():
    spec = sn.BasisSpec(2, 4)
    rule = sn.build_quadrature(2, 8)
    G = sn.gram_matrix(sn.EmptySet(), sn.Lebesgue(), spec, rule)
    assert np.abs(G).max() == 0.0


def test_arc_gram_entry_closed_form():
    # integral over [-a, a] of cos(t) cos(2t) / pi = (1/pi)(sin a + sin(3a)/3)
    a = 0.8
    spec = sn.BasisSpec(1, 2)
    G = sn.gram_matrix(sn.Arcs([[-a, a]]), sn.Lebesgue(), spec)
    expected = (math.sin(a) + math.sin(3 * a) / 3) / math.pi
    assert G[1, 3] == pytest.approx(expected, abs=1e-14)


def test_arc_gram_spectrum_matches_toeplitz():
    # the real trigonometric and complex exponential bases are unitarily related
    for a in (0.6, 1.7):
        for L in (8, 24):
            spec = sn.BasisSpec(1, L)
            G = sn.gram_matrix(sn.Arcs([[-a, a]]), sn.Lebesgue(), spec)
            ev1 = np.linalg.eigvalsh(G)
            ev2 = np.linalg.eigvalsh(toeplitz_gram(L, a))
            assert np.abs(ev1 - ev2).max() < 1e-10


def test_gram_complement_partition():
    spec = sn.BasisSpec(2, 5)
    rule = sn.build_quadrature(2, 10, oversample=2.0)
    E = sn.cap_set(sn.north_pole(2), 0.9)
    G_E = sn.gram_matrix(E, sn.Lebesgue(), spec, rule)
    G_C = sn.gram_matrix(sn.Complement(E), sn.Lebesgue(), spec, rule)
    G_full = sn.gram_matrix(sn.FullSphere(), sn.Lebesgue(), spec, rule)
    assert np.abs(G_E + G_C - G_full).max() < 1e-12


def test_lambda_trivials():
    for d, L in ((1, 12), (2, 6)):
        full = sn.lambda_min(sn.FullSphere(), sn.Lebesgue(), L, d=d)
        empty = sn.lambda_min(sn.EmptySet(), sn.Lebesgue(), L, d=d)
        assert abs(full.lambda_min - 1.0) <= 1e-9
        assert full.best_c2 == pytest.approx(1.0, abs=1e-8)
        assert empty.lambda_min <= 1e-12
        assert math.isinf(empty.best_c2)


def test_lambda_monotone_in_set():
    rng = np.random.default_rng(20)
    L = 5
    rule = sn.build_quadrature(2, 2 * L, oversample=4.0, max_spacing=0.1)
    for _ in range(5):
        centers = sn.random_points(2, 3, rng)
        radii = rng.uniform(0.4, 0.8, size=3)
        E = sn.CapUnion(centers, radii)
        E2 = sn.CapUnion(centers, radii * 1.2)
        lam1 = sn.lambda_min(E, sn.Lebesgue(), L, rule=rule).lambda_min
        lam2 = sn.lambda_min(E2, sn.Lebesgue(), L, rule=rule).lambda_min
        assert lam1 <= lam2 + 1e-9


def test_lambda_toeplitz_oracle():
    for a in (0.5, 1.0):
        for L in (8, 16):
            rep = sn.lambda_min(sn.Arcs([[-a, a]]), sn.Lebesgue(), L, d=1)
            oracle = float(np.linalg.eigvalsh(toeplitz_gram(L, a))[0])
            assert abs(rep.lambda_min - oracle) <= 1e-8
            # Gauss-Legendre on the one arc, every node inside it
            assert rep.diagnostics["rule"] == {"arcs": 1, "n": rep.diagnostics["n_nodes"]}
            assert rep.diagnostics["n_masked"] == rep.diagnostics["n_nodes"]


def test_lambda_quadrature_method_forced():
    # the masked-rule path on d=1 arcs (reached through a constant weight, which
    # the arc rule does not take) agrees with the arc rule at indicator accuracy
    a, L = 1.2, 6
    E = sn.Arcs([[-a, a]])
    exact = sn.lambda_min(E, sn.Lebesgue(), L, d=1).lambda_min
    rule = sn.build_quadrature(1, 2 * L, max_spacing=1e-3)
    one = sn.BandWeight(np.array([1.0, 0.0]), 0.0, math.pi, inside=1.0, outside=1.0)
    quad = sn.lambda_min(E, one, L, rule=rule).lambda_min
    assert quad == pytest.approx(exact, rel=0.05, abs=1e-6)


def test_lambda_rotation_invariance():
    rng = np.random.default_rng(21)
    # d=1: arc rule, rotation is an arc shift
    E = sn.Arcs([[0.2, 1.1], [3.0, 3.5]])
    lam = sn.lambda_min(E, sn.Lebesgue(), 10, d=1).lambda_min
    theta = 1.234
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    lam_rot = sn.lambda_min(sn.rotate(E, R), sn.Lebesgue(), 10, d=1).lambda_min
    assert abs(lam - lam_rot) < 1e-12
    # d=2: grids rebuilt per orientation, small absolute drift
    caps = sn.CapUnion(sn.random_points(2, 3, rng), np.array([0.6, 0.7, 0.5]))
    lam2 = sn.lambda_min(caps, sn.Lebesgue(), 6, d=2).lambda_min
    R2 = sn.random_rotation(2, rng)
    lam2_rot = sn.lambda_min(sn.rotate(caps, R2), sn.Lebesgue(), 6, d=2).lambda_min
    assert abs(lam2 - lam2_rot) < 1e-6


def test_witness_consistency():
    # d=2 quadrature path: the witness achieves the eigenvalue as an L^2 ratio
    E = sn.cap_set(sn.north_pole(2), 2.0)  # large cap, lambda well above the floor
    L = 6
    rule = sn.Sampling().rule(E, 2, 2 * L)
    rep = sn.lambda_min(E, sn.Lebesgue(), L, rule=rule)
    spec = sn.BasisSpec(2, L)
    ratio = sn.lp_ratio(rep.witness, E, sn.Lebesgue(), 2.0, spec, rule)
    assert abs(ratio - rep.lambda_min) <= 1e-8
    assert ratio == pytest.approx(rep.lambda_min, rel=1e-6, abs=0.0)
    # d=1 arc rule
    E1 = sn.Arcs([[-1.4, 1.4]])
    rep1 = sn.lambda_min(E1, sn.Lebesgue(), 8, d=1)
    ratio1 = sn.lp_ratio(rep1.witness, E1, sn.Lebesgue(), 2.0, sn.BasisSpec(1, 8))
    assert abs(ratio1 - rep1.lambda_min) <= 1e-8
    assert ratio1 == pytest.approx(rep1.lambda_min, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("a, L", [(1.0, 8), (2.0, 16)])
def test_lp_ratio_at_the_witness_is_lambda_on_small_arcs(a, L):
    # lambda_min = 3.8e-19 and 1.6e-16: far above the half-factor floor (5e-32)
    # but at the rounding of an assembled Gram
    E = sn.Arcs([[-a, a]])
    rep = sn.lambda_min(E, sn.Lebesgue(), L, d=1)
    ratio = sn.lp_ratio(rep.witness, E, sn.Lebesgue(), 2.0, sn.BasisSpec(1, L))
    assert ratio == pytest.approx(rep.lambda_min, rel=1e-6, abs=0.0)


def test_lambda_weighted_pencil():
    # weighted full-sphere Gram is not the identity; pencil still normalized
    w = sn.BandWeight(sn.north_pole(2), 0.0, math.pi, inside=2.0, outside=2.0)  # constant 2
    L = 4
    rule = sn.build_quadrature(2, 2 * L, oversample=2.0)
    rep = sn.lambda_min(sn.FullSphere(), w, L, rule=rule)
    assert rep.lambda_min == pytest.approx(1.0, abs=1e-9)
    E = sn.cap_set(sn.north_pole(2), 1.8)
    lam_w = sn.lambda_min(E, w, L, rule=rule).lambda_min
    lam_s = sn.lambda_min(E, sn.Lebesgue(), L, rule=rule).lambda_min
    assert lam_w == pytest.approx(lam_s, rel=1e-9)  # constant weights cancel


def _back_substitute(R, b):
    """R^-1 b for an upper-triangular mpmath matrix R (a list of rows) and a vector b."""
    x = [mpmath.mpf(0)] * len(b)
    for i in reversed(range(len(b))):
        x[i] = (b[i] - mpmath.fdot(R[i][i + 1 :], x[i + 1 :])) / R[i][i]
    return x


def _forward_substitute(R, b):
    """R^-T b for an upper-triangular mpmath matrix R (a list of rows) and a vector b."""
    x = [mpmath.mpf(0)] * len(b)
    for i in range(len(b)):
        x[i] = (b[i] - mpmath.fdot([R[k][i] for k in range(i)], x[:i])) / R[i][i]
    return x


@pytest.mark.parametrize("config, L", [("configs/weighted_arcs.yaml", 16), ("configs/weighted_arcs.yaml", 32),
                                       ("perfbench/weighted_sphere.yaml", 12)],
                         ids=["weighted-arcs-L16", "weighted-arcs-L32", "weighted-sphere-L12"])
def test_weighted_sigma_matches_a_high_precision_pencil(config, L):
    # sigma = sqrt(lambda_min) against sigma_min of the pencil factor T = R_E R_full^-1
    # built in 50-digit arithmetic from the same float64 half-factors: inverse
    # iteration on T^T T = R_full^-T R_E^T R_E R_full^-1 by triangular solves,
    # started at the reported witness, then the norm of T at the unit iterate
    cfg = load_config(ROOT / config)
    spec = sn.BasisSpec(cfg.d, L)
    E = sn.realize_family(cfg.family, cfg.d, L)
    rule = cfg.sampling.rule(E, cfg.d, 2 * L)
    rep = sn.lambda_min(E, cfg.measure, L, rule=rule, d=cfg.d)
    _, _, R_E, R_full = concentration._half_factors(E, cfg.measure, spec, rule)
    with mpmath.workdps(50):
        R_e, R_f = ([[mpmath.mpf(float(x)) for x in row] for row in R] for R in (R_E, R_full))
        v = [mpmath.mpf(float(x)) for x in R_full @ rep.witness]
        for _ in range(3):  # v <- R_full R_E^-1 R_E^-T R_full^T v, normalized
            w = [mpmath.fdot([R_f[k][i] for k in range(i + 1)], v[: i + 1]) for i in range(len(v))]
            w = _back_substitute(R_e, _forward_substitute(R_e, w))
            v = [mpmath.fdot(R_f[i][i:], w[i:]) for i in range(len(w))]
            v = [x / mpmath.norm(v) for x in v]
        y = _back_substitute(R_f, v)
        sigma = mpmath.norm([mpmath.fdot(R_e[i][i:], y[i:]) for i in range(len(y))])
    assert abs(math.sqrt(rep.lambda_min) - float(sigma)) <= 1e-16, (math.sqrt(rep.lambda_min), sigma)


def test_degenerate_measure_error():
    w = sn.BandWeight(sn.north_pole(2), 0.0, 0.1, inside=1.0, outside=0.0)
    L = 6
    rule = sn.build_quadrature(2, 2 * L)
    with pytest.raises(sn.DegenerateMeasureError):
        sn.lambda_min(sn.FullSphere(), w, L, rule=rule)


def test_dimension_guard(monkeypatch):
    # no degree cap: dim Pi_40 = 1681 runs
    rep = sn.lambda_min(sn.FullSphere(), sn.Lebesgue(), 40, d=2)
    assert abs(rep.lambda_min - 1.0) <= 1e-9
    # 8 (dim Pi_200)^2 = 1.3e10 entries pass the 4e8 budget: refused before the ring factors are built
    monkeypatch.setattr(concentration, "ring_factors", None)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        sn.lambda_min(sn.FullSphere(), sn.Lebesgue(), 200, d=2)
    assert time.perf_counter() - t0 < 5.0


def test_circle_dense_basis_guard():
    # d=1 holds the node x basis matrix: 400,400 nodes x dim Pi_500 = 1001 plus
    # 8 x 1001^2 factor entries pass the 4e8-entry budget
    E = sn.Arcs([[-1.0, 1.0]])
    w = sn.PowerDistanceWeight(2.0, np.array([1.0, 0.0]))
    rule = sn.build_quadrature(1, 1000, oversample=400.0)
    with pytest.raises(ResourceLimitError):
        sn.lambda_min(E, w, 500, rule=rule)


def test_rule_exactness_guard():
    rule = sn.build_quadrature(2, 6)
    with pytest.raises(ValueError):
        sn.lambda_min(sn.cap_set(sn.north_pole(2), 1.0), sn.Lebesgue(), 8, rule=rule)


def test_lp_ratio_trivials():
    spec = sn.BasisSpec(2, 4)
    rng = np.random.default_rng(22)
    c = rng.standard_normal(25)
    rule = sn.build_quadrature(2, 8)
    assert sn.lp_ratio(c, sn.FullSphere(), sn.Lebesgue(), 2.0, spec, rule) == pytest.approx(1.0, abs=1e-12)
    assert sn.lp_ratio(c, sn.FullSphere(), sn.Lebesgue(), 3.5, spec, rule) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        sn.lp_ratio(np.zeros(25), sn.FullSphere(), sn.Lebesgue(), 2.0, spec, rule)
    with pytest.raises(ValueError):
        sn.lp_ratio(c, sn.FullSphere(), sn.Lebesgue(), 0.5, spec, rule)


def test_lp_ratio_peak_decay():
    # mass of a peaked polynomial inside a far cap shrinks as the power grows
    N = sn.north_pole(2)
    E = sn.cap_set(-N, 0.7)
    base_L = 4
    rule = sn.build_quadrature(2, 8 * base_L, oversample=2.0)
    ratios = []
    for ell in (1, 2, 3):
        spec = sn.BasisSpec(2, base_L * ell)
        Q = sn.peak_polynomial(2, base_L, ell, N)
        vals = Q(rule.nodes)
        B = sn.basis_matrix(spec, rule.nodes)
        coeffs = B.T @ (rule.weights * vals)
        ratios.append(sn.lp_ratio(coeffs, E, sn.Lebesgue(), 2.0, spec, rule))
    assert ratios[0] > ratios[1] > ratios[2]


def test_worst_case_p2_matches_eigensolver():
    # at p = 2 the minimum ratio is the pencil's bottom eigenvalue, witness included
    E = sn.Arcs([[-1.0, 1.0]])
    L = 8
    rep = sn.lambda_min(E, sn.Lebesgue(), L, d=1)
    found = sn.worst_case_lp(E, sn.Lebesgue(), L, p=2.0, restarts=6, seed=1, d=1)
    assert found.value == rep.lambda_min
    np.testing.assert_array_equal(found.witness, rep.witness)
    # d=2 union of caps, under a weight
    E2 = sn.CapUnion(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), np.array([1.2, 1.0]))
    mu2 = sn.PowerDistanceWeight(2.0, np.array([0.0, 0.0, 1.0]))
    rep2 = sn.lambda_min(E2, mu2, 4, d=2)
    found2 = sn.worst_case_lp(E2, mu2, 4, p=2.0, restarts=6, seed=2, d=2)
    assert found2.value == rep2.lambda_min
    np.testing.assert_array_equal(found2.witness, rep2.witness)
    assert sn.lp_ratio(found2.witness, E2, mu2, 2.0, sn.BasisSpec(2, 4)) == pytest.approx(found2.value, rel=1e-10)


def test_worst_case_full_sphere_any_p():
    for p in (1.0, 2.0, 4.0):
        rep = sn.worst_case_lp(sn.FullSphere(), sn.Lebesgue(), 4, p=p, restarts=3, seed=3, d=2)
        assert rep.value == pytest.approx(1.0, abs=1e-9)


def test_worst_case_p4_decreases_with_degree():
    # large arc so the estimates stay well above the floating-point floor
    E = sn.Arcs([[-3.0, 3.0]])
    vals = [
        sn.worst_case_lp(E, sn.Lebesgue(), L, p=4.0, restarts=5, seed=4, d=1).value
        for L in (4, 8, 16)
    ]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] > 1e-4


def test_every_p_needs_a_rule_exact_to_degree_2L():
    # at p = 2 and at p = 3 alike, a 5-node rule cannot stand in for degree 16
    E = sn.Arcs([[-1.2, 1.2], [2.0, 3.4]])
    mu = sn.PowerDistanceWeight(2.0, np.array([1.0, 0.0]))
    rule = sn.build_quadrature(1, 4)
    spec = sn.BasisSpec(1, 8)
    c = np.random.default_rng(26).standard_normal(sn.basis_dim(spec))
    for p in (2.0, 3.0):
        with pytest.raises(ValueError, match="degree 2L"):
            sn.lp_ratio(c, E, mu, p, spec, rule)
        with pytest.raises(ValueError, match="degree 2L"):
            sn.worst_case_lp(E, mu, 8, p=p, restarts=3, rule=rule, d=1)
    with pytest.raises(ValueError, match="degree 2L"):
        sn.worst_case_lp(E, sn.Lebesgue(), 8, p=3.0, restarts=3, rule=rule, d=1)


def test_restarts_count_every_start():
    E = sn.Arcs([[-1.2, 1.2], [2.0, 3.4]])
    one = sn.worst_case_lp(E, sn.Lebesgue(), 6, p=3.0, restarts=1, seed=5, d=1)
    three = sn.worst_case_lp(E, sn.Lebesgue(), 6, p=3.0, restarts=3, seed=5, d=1)
    assert len(one.restarts) == 1 and len(three.restarts) == 3
    # the first start is the projection kernel in both runs
    assert one.restarts == three.restarts[:1]
    for bad in (0, -2):
        with pytest.raises(ValueError, match="restarts"):
            sn.worst_case_lp(E, sn.Lebesgue(), 6, p=3.0, restarts=bad, d=1)


@pytest.mark.parametrize("d, L", [(1, 1), (1, 5), (2, 6)])
def test_zonal_start_is_the_projected_squared_peak(d, L):
    spec = sn.BasisSpec(d, L)
    rule = sn.build_quadrature(d, 2 * L, oversample=2.0)
    center = sn.random_points(d, 1, np.random.default_rng(27))[0]
    B = sn.basis_matrix(spec, rule.nodes)
    got = concentration._zonal_peak_start(spec, rule, center, lambda w: B.T @ w)
    peak = sn.peak_polynomial(d, max(1, L // 2), 2, center)
    np.testing.assert_array_equal(got, B.T @ (rule.weights * peak(rule.nodes)))


def test_uncertainty_trivials():
    spec = sn.BasisSpec(2, 6)
    rule = sn.build_quadrature(2, 12)
    rng = np.random.default_rng(23)
    c = rng.standard_normal(49)
    # pure tail
    assert sn.uncertainty_check(np.zeros(49), sn.cap_set(sn.north_pole(2), 0.5), spec, rule,
                                tail_norm_sq=2.0) == pytest.approx(1.0, abs=1e-12)
    # f in Pi_L on the full sphere
    assert sn.uncertainty_check(c, sn.FullSphere(), spec, rule) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        sn.uncertainty_check(c, sn.EmptySet(), spec, rule)
    with pytest.raises(ValueError):
        sn.uncertainty_check(np.zeros(49), sn.FullSphere(), spec, rule)


def test_uncertainty_witness_attains_reciprocal():
    E = sn.cap_set(sn.north_pole(2), 2.0)
    L = 6
    rule = sn.Sampling().rule(E, 2, 2 * L)
    rep = sn.lambda_min(E, sn.Lebesgue(), L, rule=rule)
    spec = sn.BasisSpec(2, L)
    ratio = sn.uncertainty_check(rep.witness, E, spec, rule)
    assert ratio == pytest.approx(1.0 / rep.lambda_min, rel=1e-9)
    # adding tail energy pulls the ratio toward 1
    with_tail = sn.uncertainty_check(rep.witness, E, spec, rule, tail_norm_sq=5.0)
    assert 1.0 < with_tail < ratio


@pytest.mark.parametrize("a, L", [(1.0, 8), (2.0, 16), (2.5, 16)])
def test_uncertainty_ratio_at_the_witness_on_arcs(a, L):
    E = sn.Arcs([[-a, a]])
    rep = sn.lambda_min(E, sn.Lebesgue(), L, d=1)
    ratio = sn.uncertainty_check(rep.witness, E, sn.BasisSpec(1, L))
    assert ratio * rep.lambda_min == pytest.approx(1.0, abs=1e-6)


def test_sup_norm_trivials():
    spec = sn.BasisSpec(2, 5)
    rng = np.random.default_rng(24)
    c = rng.standard_normal(36)
    grid = sn.candidate_centers(2, 64)
    assert sn.sup_norm_ratio(c, sn.FullSphere(), grid, spec=spec) == 1.0
    with pytest.raises(EmptyIntersectionError):
        sn.sup_norm_ratio(c, sn.EmptySet(), grid, spec=spec)


def test_sup_norm_peak_decay():
    N = sn.north_pole(2)
    E = sn.cap_set(N, math.pi / 3)
    grid = sn.candidate_centers(2, 96)
    r1 = sn.sup_norm_ratio(sn.peak_polynomial(2, 8, 1, -N), E, grid)
    r3 = sn.sup_norm_ratio(sn.peak_polynomial(2, 8, 3, -N), E, grid)
    assert r1 / r3 >= 5.0


def test_sup_norm_ratios_take_a_callable():
    N = sn.north_pole(2)
    E = sn.cap_set(N, math.pi / 3)
    grid = sn.candidate_centers(2, 96)
    Q = sn.peak_polynomial(2, 8, 1, -N)
    got = sn.sup_norm_ratios(Q, E, grid)
    assert got.shape == (1,)
    assert got[0] == sn.sup_norm_ratio(Q, E, grid)
    # a callable and the coefficient columns of the same polynomials agree
    spec = sn.BasisSpec(2, 5)
    C = np.random.default_rng(28).standard_normal((sn.basis_dim(spec), 3))
    from_columns = sn.sup_norm_ratios(C, E, grid, spec=spec)
    for j in range(3):
        ratio = sn.sup_norm_ratios(lambda pts: sn.basis_matrix(spec, pts) @ C[:, j], E, grid)
        assert ratio[0] == pytest.approx(from_columns[j], rel=1e-12)
        assert sn.sup_norm_ratio(C[:, j], E, grid, spec=spec) == pytest.approx(from_columns[j], rel=1e-12)
    with pytest.raises(ValueError, match="one row per basis function"):
        sn.sup_norm_ratios(C[:-1], E, grid, spec=spec)


def test_sup_norm_weighted():
    w = sn.PowerDistanceWeight(2.0, sn.north_pole(2))
    spec = sn.BasisSpec(2, 5)
    rng = np.random.default_rng(25)
    c = rng.standard_normal(36)
    grid = sn.candidate_centers(2, 64)
    val = sn.sup_norm_ratio(c, sn.cap_set(sn.north_pole(2), 1.5), grid, weight=w, spec=spec)
    assert 0.0 <= val <= 1.0
