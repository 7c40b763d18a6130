"""The ledger of known-wrong result columns (ROADMAP item 19): one strict
xfail per row, comparing the value a sweep ships with an oracle computed here
that does not use the masked path.  When a change fixes a row, its test
passes, strict mode fails the run, and the marker must go."""

import functools
import math
from pathlib import Path

import numpy as np
import pytest

import spherenorms as sn
from spherenorms import quadrature
from spherenorms.basis import BasisSpec, basis_matrix
from spherenorms.config import FUNCTIONALS, load_config
from spherenorms.geometry import candidate_centers, frame_at

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped(config, name, L):
    """The column of the functional ``name`` of ``config`` at degree L, as a sweep computes it."""
    cfg = load_config(CONFIGS / config)
    E = sn.realize_family(cfg.family, cfg.d, L)
    (params,) = [f.params for f in cfg.functionals if f.name == name]
    return FUNCTIONALS[name].compute(cfg, E, L, params, functools.partial(cfg.sampling.rule, E, cfg.d))[0]


def pencil_min(R_E, R_full=None):
    """lambda_min of R_E^T R_E x = lambda R_full^T R_full x: the smallest singular value of
    T = R_E R_full^-1 (R_E alone when R_full is the identity), squared."""
    T = R_E if R_full is None else np.linalg.solve(R_full.T, R_E.T).T
    return float(np.linalg.svd(T, compute_uv=False)[-1] ** 2)


def fixed_cap_oracle(L):
    """The cap's exact rule (``cap_quadrature``, 48 x 96 nodes): the basis is orthonormal on the
    sphere, so R_full is the identity."""
    rule = sn.cap_quadrature(2, sn.north_pole(2), math.pi / 3)
    return pencil_min(np.linalg.qr(basis_matrix(BasisSpec(2, L), rule.nodes) * np.sqrt(rule.weights)[:, None],
                                   mode="r"))


def weighted_arcs_oracle(L, n=300):
    """Gauss-Legendre in angle, ``n`` nodes per piece of the circle cut at E's endpoints and at
    the weight's pole (0) and kink (pi): each piece lies in E or off it, so no node is masked."""
    cfg = load_config(CONFIGS / "weighted_arcs.yaml")
    E = sn.realize_family(cfg.family, 1, L)
    cuts = np.sort(np.mod([a for s, ln in E.intervals for a in (s, s + ln)] + [0.0, math.pi], 2.0 * math.pi))
    pieces = list(zip(cuts, np.append(cuts[1:], cuts[0] + 2.0 * math.pi)))
    x, w = np.polynomial.legendre.leggauss(n)
    theta = np.concatenate([(b + a) / 2 + (b - a) / 2 * x for a, b in pieces])
    weights = np.concatenate([(b - a) / 2 * w for a, b in pieces])
    mids = np.array([[math.cos((a + b) / 2), math.sin((a + b) / 2)] for a, b in pieces])
    inside = np.repeat(sn.membership(E, mids), n)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    B = basis_matrix(BasisSpec(1, L), pts) * np.sqrt(weights * sn.weight_values(cfg.measure, pts))[:, None]
    return pencil_min(np.linalg.qr(B[inside], mode="r"), np.linalg.qr(B, mode="r"))


def dense_net_caps(L):
    """The dense-net set at degree L, once its caps are seen to be pairwise disjoint."""
    E = sn.realize_family(load_config(CONFIGS / "dense_net_sweep.yaml").family, 2, L)
    gaps = sn.geodesic_distance(E.centers[:, None, :], E.centers[None, :, :]) + 4.0 * np.eye(len(E.radii))
    assert gaps.min() > 2.0 * E.radii.max()
    return E


def dense_net_rule(L, n_t, n_phi):
    """The dense-net set at degree L and its exact rule: ``n_t`` x ``n_phi`` Gauss nodes on each cap
    (``quadrature._ring_rule`` turned to the cap by ``frame_at``), which holds because the caps are disjoint."""
    E = dense_net_caps(L)
    polar, weights = quadrature._ring_rule(math.cos(E.radii[0]), n_t, n_phi)
    nodes = np.concatenate([polar @ frame_at(c).T for c in E.centers])
    return E, sn.QuadratureRule(2, nodes, np.tile(weights, len(E.radii)), 0, {"caps": len(E.radii)})


def dense_net_eigen_oracle(L, n_t=6, n_phi=12):
    """The per-cap rule (``dense_net_rule``): the basis is orthonormal on the sphere, so R_full is the identity."""
    _, rule = dense_net_rule(L, n_t, n_phi)
    return pencil_min(np.linalg.qr(basis_matrix(BasisSpec(2, L), rule.nodes) * np.sqrt(rule.weights)[:, None],
                                   mode="r"))


def dense_net_harmonic_oracle(L, n_t=8, n_phi=16):
    """``harmonic_infimum`` on the per-cap rule (``dense_net_rule``), on the sweep's center grid."""
    E, rule = dense_net_rule(L, n_t, n_phi)
    return sn.harmonic_infimum(E, L, rule=rule, sampling=load_config(CONFIGS / "dense_net_sweep.yaml").sampling)


def cap_area(r):
    return 4.0 * math.pi * np.sin(0.5 * r) ** 2


def lens_area(theta, r1, r2):
    """Area of B(u, r1) & B(c, r2) on S^2 for each distance ``theta`` = d(u, c): the smaller cap when
    one holds the other, 0 past tangency, else the sectors of the two caps between the circles'
    crossings P, Q, less the triangles uPc and uQc.  Every term is formed without cancellation
    (half-angle law of cosines, triangle area as 2 atan2(|u.(P x c)|, 1 + u.P + P.c + c.u)), so a
    thin lens keeps its relative accuracy (within 3e-14 of 40-digit values in spot checks)."""
    theta = np.asarray(theta, dtype=float)
    area = np.where(theta <= abs(r1 - r2), cap_area(min(r1, r2)), 0.0)
    part = (theta > abs(r1 - r2)) & (theta < r1 + r2)
    t = theta[part]

    def half_angle(ra, rb):  # half the angle the crossings subtend at the center of the cap of radius ra
        return 2.0 * np.arcsin(np.sqrt(np.clip(np.sin(0.5 * (t + rb - ra)) * np.sin(0.5 * (ra + rb - t))
                                               / (np.sin(t) * math.sin(ra)), 0.0, 1.0)))

    at_u, at_c = half_angle(r1, r2), half_angle(r2, r1)
    triangle = 2.0 * np.arctan2(math.sin(r1) * np.sin(at_u) * np.sin(t),
                                1.0 + math.cos(r1) + math.cos(r2) + np.cos(t))
    area[part] = at_u / math.pi * cap_area(r1) + at_c / math.pi * cap_area(r2) - 2.0 * triangle
    return area


def lens_by_quadrature(theta, r1, r2, n=120):
    """The same area as the integral over the polar distance rho <= r1 from u of sin rho times the
    length 2 arccos(q) of the circle's part in B(c, r2): Gauss-Legendre in s on each piece between
    the kinks |theta - r2| and theta + r2, rho = a + (b - a)(1 - cos s) / 2, which smooths the
    square-root ends."""
    x, w = np.polynomial.legendre.leggauss(n)
    s, ws = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w
    cuts = sorted({0.0, r1} | {k for k in (abs(theta - r2), theta + r2) if 0.0 < k < r1})
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        rho = a + 0.5 * (b - a) * (1.0 - np.cos(s))
        q = (math.cos(r2) - np.cos(rho) * math.cos(theta)) / (np.sin(rho) * math.sin(theta))
        total += np.sum(ws * 0.5 * (b - a) * np.sin(s) * np.sin(rho) * 2.0 * np.arccos(np.clip(q, -1.0, 1.0)))
    return total


def dense_net_density_oracle(L):
    """The density column without a rule: at each center u of the sweep's grid, the lens areas of the
    window B(u, R) with the disjoint caps (``dense_net_caps``) summed over B(u, R)'s area, R = r / L."""
    cfg = load_config(CONFIGS / "dense_net_sweep.yaml")
    (params,) = [f.params for f in cfg.functionals if f.name == "density"]
    E, R = dense_net_caps(L), params["r"] / L
    centers = candidate_centers(2, cfg.sampling.per_great_circle(L, window=R))
    theta = 2.0 * np.arcsin(np.clip(0.5 * np.linalg.norm(centers[:, None, :] - E.centers[None, :, :], axis=2),
                                    0.0, 1.0))
    return float((lens_area(theta, R, E.radii[0]).sum(axis=1) / cap_area(R)).min())


@pytest.mark.parametrize("theta, r1, r2", [
    (0.1, 0.125, 0.03125), (0.15, 0.125, 0.03125), (1.0, 0.8, 0.5), (2.5, 1.5, 1.2),
    (0.02, 0.125, 0.03125), (0.02, 0.03125, 0.125),  # one cap holds the other
    (0.15625, 0.125, 0.03125), (0.09375, 0.125, 0.03125),  # outer and inner tangency
], ids=["partial", "partial-edge", "large", "past-pi/2", "window-holds-cap", "cap-holds-window",
        "outer-tangent", "inner-tangent"])
def test_lens_area_matches_quadrature(theta, r1, r2):
    assert lens_area(theta, r1, r2)[()] == pytest.approx(lens_by_quadrature(theta, r1, r2), rel=1e-10, abs=1e-15)


def test_oracles_give_the_recorded_exact_values():
    # the oracles themselves must hold, or a wrong oracle could flip a ledger entry
    assert fixed_cap_oracle(8) == pytest.approx(3.689188e-18, rel=1e-6, abs=0.0)
    assert weighted_arcs_oracle(8) == pytest.approx(2.1171931e-6, rel=1e-7, abs=0.0)
    assert weighted_arcs_oracle(16) == pytest.approx(2.3671423e-12, rel=1e-7, abs=0.0)
    assert weighted_arcs_oracle(16, n=600) == pytest.approx(weighted_arcs_oracle(16), rel=1e-10, abs=0.0)
    assert dense_net_eigen_oracle(8) == pytest.approx(0.17590033457420576, rel=1e-12, abs=0.0)
    assert dense_net_eigen_oracle(8, 10, 20) == pytest.approx(dense_net_eigen_oracle(8), rel=1e-12, abs=0.0)
    coarse, fine = dense_net_harmonic_oracle(8), dense_net_harmonic_oracle(8, 12, 24)
    assert coarse.delta_hat == pytest.approx(0.16643080048264475, rel=1e-12, abs=0.0)
    assert fine.delta_hat == pytest.approx(coarse.delta_hat, rel=1e-10, abs=0.0)
    np.testing.assert_array_equal(fine.argmin_center, coarse.argmin_center)
    assert dense_net_density_oracle(16) == pytest.approx(0.14870519877562705, rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18: the masked product rule misses the fixed cap's lambda_min at L=8")
def test_fixed_cap_eigen_at_8_is_exact():
    assert shipped("fixed_cap_decay.yaml", "eigen", 8) == pytest.approx(fixed_cap_oracle(8), rel=1e-6, abs=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: weighted d=1 Grams come from a masked uniform rule")
@pytest.mark.parametrize("L", [8, 16])
def test_weighted_arcs_eigen_is_exact(L):
    assert shipped("weighted_arcs.yaml", "eigen", L) == pytest.approx(weighted_arcs_oracle(L), rel=1e-8, abs=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18: the masked product rule misses dense-net's lambda_min at L=8")
def test_dense_net_eigen_at_8_is_exact():
    assert shipped("dense_net_sweep.yaml", "eigen", 8) == pytest.approx(dense_net_eigen_oracle(8), rel=1e-9, abs=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18: the masked product rule misses dense-net's harmonic floor at L=8")
def test_dense_net_harmonic_at_8_is_exact():
    assert shipped("dense_net_sweep.yaml", "harmonic", 8) == pytest.approx(dense_net_harmonic_oracle(8).delta_hat,
                                                                           rel=1e-9, abs=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 18: the masked product rule misses dense-net's density at L=16")
def test_dense_net_density_at_16_is_exact():
    assert shipped("dense_net_sweep.yaml", "density", 16) == pytest.approx(dense_net_density_oracle(16),
                                                                          rel=1e-9, abs=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the L^4 adversary reports a ratio below a lower bound of it")
def test_weighted_arcs_pnorm_at_8_is_above_its_lower_bound():
    # p = 4 = 2 * 2: Q^2 has degree 16, so lambda(E, mu, 16) bounds the L^4 ratio of every Q of degree 8 from below
    assert shipped("weighted_arcs.yaml", "pnorm", 8) >= weighted_arcs_oracle(16)
