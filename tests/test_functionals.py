"""Relative density, harmonic measure, doubling / weight-class diagnostics,
and the good-cap regularization."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import spherenorms as sn
from spherenorms.errors import DegenerateMeasureError, ResolutionError
from spherenorms.geometry import candidate_centers
from spherenorms.quadrature import cap_quadrature
from spherenorms.sets import EmptySet


def test_relative_density_trivials():
    rep = sn.relative_density(sn.FullSphere(), sn.Lebesgue(), 8, r=2.0, d=2)
    assert rep.rho_hat == 1.0
    rep0 = sn.relative_density(sn.EmptySet(), sn.Lebesgue(), 8, r=2.0, d=2)
    assert rep0.rho_hat == 0.0


def test_relative_density_fixed_cap_vanishes():
    # at large L the r/L windows centered deep in the complement miss the cap
    E = sn.cap_set(sn.north_pole(2), math.pi / 3)
    rep = sn.relative_density(E, sn.Lebesgue(), 16, r=2.0, d=2)
    assert rep.rho_hat == 0.0
    # the argmin sits far from the cap
    assert sn.geodesic_distance(rep.argmin_center, sn.north_pole(2)) > math.pi / 3


def test_relative_density_dense_family_stable():
    fam = sn.CapNetFamily(0.5, 2.0)
    values = {}
    for L in (8, 16):
        E = sn.realize_family(fam, 2, L)
        values[L] = sn.relative_density(E, sn.Lebesgue(), L, r=2.0, d=2).rho_hat
    assert values[8] > 0.1
    assert values[16] > 0.1
    assert values[16] >= values[8] / 2


def test_relative_density_resolution_error():
    # a requested grid coarser than the window is a floor: the grid is refined
    rep = sn.relative_density(sn.FullSphere(), sn.Lebesgue(), 8, r=0.5, d=2,
                              sampling=sn.Sampling(per_great_circle_factor=3))
    assert rep.resolution["per_great_circle"] == math.ceil(2 * math.pi / (0.5 / 8)) + 1
    assert rep.rho_hat == 1.0
    # a rule too coarse for the window still fails
    coarse = sn.build_quadrature(2, 2)
    with pytest.raises(ResolutionError, match="caught no quadrature node"):
        sn.density_profile(sn.FullSphere(), sn.Lebesgue(), 8, 0.05, 0.05, rule=coarse)
    # window radii outside (0, pi] are refused before any grid or rule is sized
    for num, den in ((0.0, 0.1), (0.1, 0.0), (0.1, -0.1), (-0.1, 0.1), (4.0, 0.1), (0.1, 4.0)):
        with pytest.raises(ValueError, match="window radii"):
            sn.density_profile(sn.FullSphere(), sn.Lebesgue(), 8, num, den, d=2)


def test_density_report_range():
    E = sn.random_cap_union(2, 20, 0.4, seed=5)
    rep = sn.relative_density(E, sn.Lebesgue(), 8, r=2.0, d=2)
    assert 0.0 <= rep.rho_hat <= 1.0
    assert rep.resolution["n_centers"] > 0


def test_harmonic_measure_trivials():
    rule = sn.build_quadrature(2, 0, max_spacing=0.02)
    x = 0.875 * sn.north_pole(2)
    assert sn.harmonic_measure(sn.FullSphere(), x, rule) == pytest.approx(1.0, abs=1e-9)
    # at the origin the kernel is 1: harmonic measure equals normalized surface measure
    E = sn.cap_set(sn.north_pole(2), 0.9)
    h0 = sn.harmonic_measure(E, np.zeros(3), rule)
    assert h0 == pytest.approx(sn.set_measure(E, sn.Lebesgue(), rule) / (4 * math.pi), abs=1e-14)
    with pytest.raises(ValueError):
        sn.harmonic_measure(E, sn.north_pole(2), rule)


def test_harmonic_measure_hemisphere_radial_oracle():
    # 1D oracle by axisymmetry: h = (1/2) int_0^(pi/2) (1-rho^2) sin t / (1+rho^2-2 rho cos t)^(3/2) dt
    L = 16
    rho = 1.0 - 1.0 / L
    oracle, err = quad(
        lambda t: (1 - rho**2) * math.sin(t) / (1 + rho**2 - 2 * rho * math.cos(t)) ** 1.5,
        0.0,
        math.pi / 2,
        epsabs=1e-13,
    )
    oracle *= 0.5
    assert err < 1e-10
    rule = sn.build_quadrature(2, 0, max_spacing=0.004)
    E = sn.cap_set(sn.north_pole(2), math.pi / 2)
    got = sn.harmonic_measure(E, rho * sn.north_pole(2), rule)
    assert got == pytest.approx(oracle, rel=5e-3)
    assert 0.5 < got < 1.0


def test_harmonic_additivity():
    rule = sn.build_quadrature(2, 0, max_spacing=0.02)
    E = sn.random_cap_union(2, 4, 0.7, seed=8)
    x = 0.875 * sn.north_pole(2)
    total = sn.harmonic_measure(E, x, rule) + sn.harmonic_measure(sn.Complement(E), x, rule)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_harmonic_monotone_in_set():
    rule = sn.build_quadrature(2, 0, max_spacing=0.03)
    small = sn.cap_set(sn.north_pole(2), 0.5)
    big = sn.cap_set(sn.north_pole(2), 1.0)
    x = 0.9 * np.array([0.0, 1.0, 0.0])
    assert sn.harmonic_measure(small, x, rule) <= sn.harmonic_measure(big, x, rule)


def test_harmonic_infimum_full():
    rep = sn.harmonic_infimum(sn.FullSphere(), 8, d=2)
    assert rep.delta_hat == pytest.approx(1.0, abs=1e-6)


def test_harmonic_infimum_refuses_a_rule_on_another_sphere():
    # an S^1 rule under d=2 returned 0.0 before rule_dim compared the two
    rule = sn.Sampling().rule(sn.Arcs([[-1.2, 1.2]]), 1, window=0.25)
    with pytest.raises(ValueError, match="S\\^1"):
        sn.harmonic_infimum(sn.cap_set(sn.north_pole(2), 1.0), 8, rule=rule, d=2)


def test_harmonic_infimum_fixed_cap_decays():
    E = sn.cap_set(sn.north_pole(2), math.pi / 3)
    d8 = sn.harmonic_infimum(E, 8, d=2).delta_hat
    d16 = sn.harmonic_infimum(E, 16, d=2).delta_hat
    assert d16 < d8
    assert d16 <= d8 / 1.5


def funk_hecke_cap_harmonic(points, n, r, rho, l_max=400):
    """omega(rho xi, cap(n, r)) on S^2 by the Funk-Hecke series
    (1 - a)/2 + sum_{l>=1} rho^l P_l(xi . n) (P_{l-1}(a) - P_{l+1}(a))/2, a = cos r,
    with P_l by the three-term recurrence; the tail is below rho^l_max."""
    a, s = math.cos(r), points @ n
    pa = [1.0, a]
    for l in range(1, l_max + 1):
        pa.append(((2 * l + 1) * a * pa[l] - l * pa[l - 1]) / (l + 1))
    total = np.full(s.shape, (1.0 - a) / 2.0)
    p_prev, p_cur = np.ones_like(s), s
    for l in range(1, l_max + 1):
        total += rho**l * p_cur * (pa[l - 1] - pa[l + 1]) / 2.0
        p_prev, p_cur = p_cur, ((2 * l + 1) * s * p_cur - l * p_prev) / (l + 1)
    return total


@pytest.mark.parametrize("L", [2, 5])
def test_harmonic_infimum_matches_funk_hecke_series(L):
    # every node of the cap's own rule lies in the cap, so the scan is unmasked;
    # the grid minimum sits far from the cap edge, where the rule resolves the
    # kernel to rounding at rho = 1 - 1/L <= 0.8
    n = np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)
    E = sn.cap_set(n, 1.0)
    rule = cap_quadrature(2, n, 1.0)
    assert sn.membership(E, rule.nodes).all()
    rep = sn.harmonic_infimum(E, L, rule=rule)
    centers = candidate_centers(2, rep.resolution["per_great_circle"])
    want = float(funk_hecke_cap_harmonic(centers, n, 1.0, 1.0 - 1.0 / L).min())
    assert abs(rep.delta_hat - want) <= 1e-12 * want


def test_harmonic_infimum_dense_bounded():
    fam = sn.CapNetFamily(0.5, 2.0)
    d8 = sn.harmonic_infimum(sn.realize_family(fam, 2, 8), 8, d=2).delta_hat
    d16 = sn.harmonic_infimum(sn.realize_family(fam, 2, 16), 16, d=2).delta_hat
    assert d8 > 0.05
    assert d16 >= d8 / 2


def test_density_harmonic_classification_agreement():
    # families keep a positive harmonic floor exactly when they stay relatively dense
    dense = sn.CapNetFamily(0.5, 2.0)
    fixed = sn.FixedFamily(sn.cap_set(sn.north_pole(2), math.pi / 3))
    for fam, expected in ((dense, True), (fixed, False)):
        rho = {L: sn.relative_density(sn.realize_family(fam, 2, L), sn.Lebesgue(), L, 2.0, d=2).rho_hat
               for L in (8, 16)}
        dlt = {L: sn.harmonic_infimum(sn.realize_family(fam, 2, L), L, d=2).delta_hat
               for L in (8, 16)}
        stays_dense = rho[8] > 0 and rho[16] >= rho[8] / 2
        stays_harmonic = dlt[8] > 0.05 and dlt[16] >= dlt[8] / 2
        assert stays_dense == expected
        assert stays_harmonic == expected


def test_doubling_lebesgue_exact_ratios():
    rep = sn.doubling_constant(sn.Lebesgue(), scales=[0.1, 0.3, 0.7], d=2, seed=1)
    # exact cap-area ratios: (1 - cos 2t)/(1 - cos t) <= 4, approaching 4 as t -> 0
    exact = max((1 - math.cos(2 * t)) / (1 - math.cos(t)) for t in (0.1, 0.3, 0.7))
    assert rep.doubling_constant == pytest.approx(exact, rel=1e-9)
    assert rep.doubling_constant <= 4.0 + 1e-9
    assert rep.doubling_exponent >= 1.0


def test_doubling_fit_matches_pairwise_loops():
    # reference: the growth-exponent and sandwich-constant fit as loops over radius pairs
    w = sn.PowerDistanceWeight(2.0, sn.north_pole(2))
    centers = sn.random_points(2, 6, np.random.default_rng(4))
    scales = [0.1, 0.2, 0.4]
    rep = sn.doubling_constant(w, scales, centers=centers)
    radii = np.unique(np.concatenate([scales, 2.0 * np.asarray(scales)]))
    masses = np.array([[sn.cap_mass(w, 2, u, float(r)) for r in radii] for u in centers])
    pairs = [(j, k) for j in range(radii.size) for k in range(j + 1, radii.size)]
    gamma = 1.0
    for j, k in pairs:
        gamma = max(gamma, float((np.log(masses[:, k] / masses[:, j]) / math.log(radii[k] / radii[j])).max()))
    c_low = 1.0
    for j, k in pairs:
        q = radii[k] / radii[j]
        ratio = masses[:, k] / masses[:, j]
        c_low = max(c_low, float((q ** (1.0 / gamma) / ratio).max()))
    # same arithmetic; only the log implementation may differ, by a few ulps
    tol = 8 * np.finfo(float).eps
    assert rep.doubling_exponent == pytest.approx(gamma, rel=tol)
    assert rep.doubling_c_low == pytest.approx(c_low, rel=tol)
    # gamma is the largest growth over these pairs, so the upper power bound
    # holds with constant 1 on every pair (why no upper constant is reported)
    for j, k in pairs:
        q = radii[k] / radii[j]
        assert np.all(masses[:, k] / masses[:, j] <= q**rep.doubling_exponent * (1.0 + tol))


def test_doubling_circle_small_scale():
    rep = sn.doubling_constant(sn.Lebesgue(), scales=[1e-3], d=1, seed=2)
    assert rep.doubling_constant == pytest.approx(2.0, abs=1e-9)


def test_doubling_power_weight():
    mu = sn.PowerDistanceWeight(2.0, sn.north_pole(2))
    rep = sn.doubling_constant(mu, scales=[0.05, 0.2], d=2, seed=3)
    assert 8.0 <= rep.doubling_constant <= 17.0
    assert math.isfinite(rep.doubling_exponent)


def test_doubling_sandwich_holds_with_recorded_constants():
    mu = sn.PowerDistanceWeight(2.0, sn.north_pole(2))
    rep = sn.doubling_constant(mu, scales=[0.05, 0.1, 0.3], d=2, seed=4)
    assert rep.doubling_c_low >= 1.0 - 1e-12
    # the fitted exponent reproduces the masses it was fitted to
    assert rep.doubling_exponent >= 1.0


def test_doubling_degenerate_measure():
    dead = sn.BandWeight(sn.north_pole(2), 0.0, math.pi, inside=0.0, outside=0.0)
    with pytest.raises(DegenerateMeasureError):
        sn.doubling_constant(dead, scales=[0.2], d=2, seed=5)


def test_ainfty_constant_weight():
    rep = sn.ainfty_check(sn.Lebesgue(), 2, seed=6)
    B, beta, passed = rep.ainfty
    assert passed
    # at beta = 1 the constant weight needs exactly B = 1
    assert rep.config["per_beta"][1.0] == pytest.approx(1.0, abs=1e-9)
    assert B <= 1.0 + 1e-9


def test_ainfty_power_weight_passes():
    mu = sn.PowerDistanceWeight(2.0, sn.north_pole(2))
    rep = sn.ainfty_check(mu, 2, seed=7)
    B, beta, passed = rep.ainfty
    assert passed and math.isfinite(B) and B >= 1.0


def test_rhinfty_constant_weight():
    rep = sn.rhinfty_check(sn.Lebesgue(), 2, seed=8)
    C, passed = rep.rhinfty
    assert passed and C == 1.0


def test_rhinfty_power_weight():
    mu = sn.PowerDistanceWeight(2.0, sn.north_pole(2))
    rep = sn.rhinfty_check(mu, 2, seed=9)
    C, passed = rep.rhinfty
    assert passed
    assert 1.0 < C < 10.0


def test_rhinfty_unbounded_weight_fails():
    mu = sn.PowerDistanceWeight(-0.5, sn.north_pole(2))
    rep = sn.rhinfty_check(mu, 2, seed=10)
    C, passed = rep.rhinfty
    assert not passed or not math.isfinite(C)


def test_regularize_full_and_empty():
    full_star = sn.regularize_set(sn.FullSphere(), 8, eps=0.5, delta=1.0, d=2)
    rep = sn.relative_density(full_star, sn.Lebesgue(), 8, r=2.0, d=2)
    assert rep.rho_hat >= 0.999
    empty_star = sn.regularize_set(sn.EmptySet(), 8, eps=0.5, delta=0.25, d=2)
    assert isinstance(empty_star, EmptySet)


def test_regularize_dense_family_keeps_density():
    L = 8
    E = sn.realize_family(sn.CapNetFamily(0.5, 2.0), 2, L)
    rho = sn.relative_density(E, sn.Lebesgue(), L, r=2.0, d=2).rho_hat
    star = sn.regularize_set(E, L, eps=0.5, delta=rho / 2, d=2)
    prof = sn.density_profile(star, sn.Lebesgue(), L, num_radius=2.0 / L, den_radius=1.0 / L, d=2)
    assert prof.rho_hat >= rho / 2


def test_regularize_default_delta():
    L = 8
    E = sn.realize_family(sn.CapNetFamily(0.5, 2.0), 2, L)
    star = sn.regularize_set(E, L, eps=0.5, d=2)
    assert isinstance(star, sn.CapUnion)
    assert star.radii[0] == pytest.approx(0.5 / L)


def test_functional_rotation_covariance():
    # rotating the set, the measure, and the evaluation data together is exact
    rng = np.random.default_rng(30)
    R = sn.random_rotation(2, rng)
    E = sn.random_cap_union(2, 5, 0.5, seed=11)
    mu = sn.PowerDistanceWeight(2.0, sn.north_pole(2))
    rule = sn.build_quadrature(2, 0, max_spacing=0.05)
    rot_rule = sn.QuadratureRule(2, sn.rotate(rule.nodes, R), rule.weights, 0, dict(rule.descriptor))
    m1 = sn.set_measure(E, mu, rule)
    m2 = sn.set_measure(sn.rotate(E, R), sn.rotate_measure(mu, R), rot_rule)
    assert m2 == pytest.approx(m1, rel=1e-9)
    x = 0.875 * sn.north_pole(2)
    h1 = sn.harmonic_measure(E, x, rule)
    h2 = sn.harmonic_measure(sn.rotate(E, R), R @ x, rot_rule)
    assert h2 == pytest.approx(h1, rel=1e-6)
