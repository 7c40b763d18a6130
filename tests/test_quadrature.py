"""Quadrature rules: mass, positivity, exactness certificates, guards."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import spherenorms as sn
from spherenorms import functionals, quadrature
from spherenorms.basis import ring_factors
from spherenorms.errors import ResourceLimitError
from spherenorms.quadrature import QuadratureRule, _gauss_legendre, ring_layout


def test_total_mass():
    for d in (1, 2):
        rule = sn.build_quadrature(d, 12)
        assert rule.weights.sum() == pytest.approx(sn.sphere_measure(d), rel=1e-10)


def test_weights_positive():
    for d in (1, 2):
        rule = sn.build_quadrature(d, 20, oversample=2.0)
        assert (rule.weights > 0).all()


def test_circle_rule_node_count():
    rule = sn.build_quadrature(1, 8)
    assert rule.n_nodes >= 9
    assert rule.weights.sum() == pytest.approx(2 * math.pi, rel=1e-12)


def test_degree_zero_single_ring():
    rule = sn.build_quadrature(2, 0)
    assert rule.descriptor["n_t"] == 1
    assert rule.weights.sum() == pytest.approx(4 * math.pi, rel=1e-12)


def test_exactness_certificate_d2():
    # Gram of the full orthonormal basis equals identity at the advertised degree
    for L in (4, 12):
        spec = sn.BasisSpec(2, L)
        rule = sn.build_quadrature(2, 2 * L)
        B = sn.basis_matrix(spec, rule.nodes)
        G = (B * rule.weights[:, None]).T @ B
        assert np.abs(G - np.eye(G.shape[0])).max() < 1e-12


def test_exactness_certificate_d1():
    for L in (16, 256):
        spec = sn.BasisSpec(1, L)
        rule = sn.build_quadrature(1, 2 * L)
        B = sn.basis_matrix(spec, rule.nodes)
        G = (B * rule.weights[:, None]).T @ B
        assert np.abs(G - np.eye(G.shape[0])).max() < 1e-12


def test_undersized_rule_breaks_exactness():
    # halving the degree must produce a visible Gram defect with a witness pair
    L = 8
    spec = sn.BasisSpec(2, L)
    rule = sn.build_quadrature(2, L)  # too coarse for degree-2L products
    B = sn.basis_matrix(spec, rule.nodes)
    G = (B * rule.weights[:, None]).T @ B
    defect = np.abs(G - np.eye(G.shape[0]))
    i, j = np.unravel_index(np.argmax(defect), defect.shape)
    assert defect[i, j] > 1e-12
    assert i != j or defect[i, j] > 1e-12


def test_resource_guard():
    with pytest.raises(ResourceLimitError):
        sn.build_quadrature(2, 10, max_spacing=1e-4, max_nodes=100_000)


def test_oversample_validation():
    with pytest.raises(ValueError):
        sn.build_quadrature(2, 4, oversample=0.5)


def test_sampling_sizes_rules_and_grids():
    E = sn.cap_set(sn.north_pole(2), 0.3)
    s = sn.Sampling(oversample=2, spacing_factor=5.0, max_nodes=10**6, per_great_circle_factor=3)
    assert s.oversample == 2.0 and isinstance(s.oversample, float)
    want = sn.build_quadrature(2, 8, oversample=2.0, max_spacing=0.3 / 5.0)
    assert s.rule(E, 2, 8).descriptor == want.descriptor
    # oversampling densifies only rules that must integrate a positive degree
    assert s.rule(E, 2, window=0.1).descriptor == sn.build_quadrature(2, 0, max_spacing=0.1 / 5.0).descriptor
    assert s.per_great_circle(8) == 24
    assert s.per_great_circle(8, window=0.1) == math.ceil(2 * math.pi / 0.1) + 1
    with pytest.raises(ResourceLimitError):
        sn.Sampling(max_nodes=100).rule(E, 2, 8)


@pytest.mark.parametrize("settings, message", [
    ({"oversample": 0.5}, "oversample must be >= 1"),
    ({"spacing_factor": "2.5"}, "spacing_factor must be a number"),
    ({"max_nodes": True}, "max_nodes must be an integer"),
    ({"per_great_circle_factor": 0}, "per_great_circle_factor must be >= 1"),
])
def test_sampling_checks_its_fields(settings, message):
    with pytest.raises(ValueError, match=message):
        sn.Sampling(**settings)


def test_cap_quadrature_mass():
    for d in (1, 2):
        for radius in (0.3, 1.2):
            rule = sn.cap_quadrature(d, sn.north_pole(d), radius)
            assert rule.weights.sum() == pytest.approx(sn.cap_measure(d, radius), rel=1e-12)
            # all nodes inside the cap
            dist = sn.geodesic_distance(rule.nodes, sn.north_pole(d))
            assert dist.max() <= radius + 1e-9


def test_cap_quadrature_integrates_smooth():
    # integral over the cap of z = 2 pi int_0^r cos t sin t dt
    radius = 0.9
    rule = sn.cap_quadrature(2, sn.north_pole(2), radius)
    got = float(rule.weights @ rule.nodes[:, 2])
    expected = 2 * math.pi * (math.sin(radius) ** 2) / 2
    assert got == pytest.approx(expected, rel=1e-12)


def test_gauss_legendre_nodes_built_once_and_read_only():
    x, w = _gauss_legendre(48)
    ref_x = np.polynomial.legendre.leggauss(48)[0]
    ref_w = w.copy()
    assert np.array_equal(x, ref_x)
    assert _gauss_legendre(48)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    # the rules built on the shared arrays leave them untouched
    sn.cap_quadrature(2, sn.north_pole(2), 0.7)
    sn.build_quadrature(2, 94)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def _mp_gauss_legendre_weights(n: int) -> list:
    """Gauss-Legendre weights 2 / ((1 - x^2) P_n'(x)^2) at 40 digits, the
    nodes Newton-refined from float64 starting points."""
    with mpmath.workdps(40):
        weights = []
        for x0 in np.polynomial.legendre.leggauss(n)[0]:
            x = mpmath.mpf(float(x0))
            for _ in range(6):
                p0, p1 = mpmath.mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
            weights.append(2 / ((1 - x * x) * dp * dp))
        return weights


@pytest.mark.parametrize("n", [48, 79, 150])
def test_gauss_legendre_weights_match_extended_precision(n):
    w = _gauss_legendre(n)[1]
    ref = _mp_gauss_legendre_weights(n)
    assert sum(abs(float(wi - ri)) for wi, ri in zip(w, ref)) <= 1e-14


@pytest.mark.parametrize("exact_degree, oversample", [(0, 1.0), (12, 1.0), (31, 2.5), (94, 4.0)])
def test_product_rule_nodes_are_gauss_legendre_rings(exact_degree, oversample):
    # the ring-major layout basis.ring_factors reads: leggauss nodes in z,
    # n_phi equispaced longitudes from phi = 0 on each ring
    rule = sn.build_quadrature(2, exact_degree, oversample=oversample)
    n_t, n_phi = rule.descriptor["n_t"], rule.descriptor["n_phi"]
    t = np.polynomial.legendre.leggauss(n_t)[0]
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    ref = np.stack([np.outer(s, np.cos(phi)).ravel(), np.outer(s, np.sin(phi)).ravel(), np.repeat(t, n_phi)], axis=1)
    assert np.array_equal(rule.nodes, ref)


@pytest.mark.parametrize("d", [1, 2])
def test_product_rules_record_their_layout(d):
    E = sn.random_cap_union(d, 3, 0.4, 7)
    for rule in (sn.build_quadrature(d, 9, oversample=2.0, max_spacing=0.3), sn.Sampling().rule(E, d, 8),
                 sn.Sampling().rule(E, d, window=0.2)):
        n_rings, n_phi = ring_layout(rule)
        assert rule.layout == (n_rings, n_phi) == ((1, rule.descriptor["n"]) if d == 1 else
                                                   (rule.descriptor["n_t"], rule.descriptor["n_phi"]))
        # rings of n_phi longitudes 2 pi k / n_phi, in ring-major order
        rings = rule.nodes.reshape(n_rings, n_phi, d + 1)
        phi = np.arctan2(rings[..., 1], rings[..., 0]) % (2.0 * math.pi)
        np.testing.assert_allclose(phi, np.broadcast_to(2.0 * math.pi * np.arange(n_phi) / n_phi, phi.shape),
                                   atol=1e-12)
        # the record cannot go stale: the nodes and weights refuse writes
        for values in (rule.nodes, rule.weights):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0
    with pytest.raises(TypeError):
        QuadratureRule(d, rule.nodes, rule.weights, rule.exact_degree, dict(rule.descriptor), layout=rule.layout)


@pytest.mark.parametrize("d", [1, 2])
def test_copies_of_a_product_rule_carry_no_layout(d, monkeypatch):
    # the same nodes and descriptor by hand, or a replace copy: no ring kernel takes
    # them, and inside classifies them point by point, to the product rule's mask
    rule = sn.build_quadrature(d, 0, max_spacing=0.1)
    E = sn.random_cap_union(d, 4, 0.5, 11)
    hand = QuadratureRule(d, rule.nodes, rule.weights, rule.exact_degree, dict(rule.descriptor))
    centers = sn.candidate_centers(d, 12)
    layouts, real = [], quadrature.membership

    def recorded(spec, points, *args, layout=None, **kwargs):
        layouts.append(layout)
        return real(spec, points, *args, layout=layout, **kwargs)

    mask = rule.inside(E)
    monkeypatch.setattr(quadrature, "membership", recorded)
    for bad in (hand, replace(rule)):
        assert bad.layout is None
        with pytest.raises(ValueError, match="product"):
            functionals._local_masses(centers, bad, [(bad.weights, 0.3)])
        if d == 2:
            with pytest.raises(ValueError, match="product"):
                ring_factors(sn.BasisSpec(2, 4), bad)
            with pytest.raises(ValueError, match="product"):
                sn.lambda_min(E, sn.Lebesgue(), 4, rule=bad)
        layouts.clear()
        np.testing.assert_array_equal(bad.inside(E), mask)
        assert layouts == [None]
