"""Quadrature rules: mass, positivity, exactness certificates, guards."""

import math

import numpy as np
import pytest

import spherenorms as sn
from spherenorms.errors import ResourceLimitError
from spherenorms.quadrature import _gauss_legendre


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
    ref_x, ref_w = np.polynomial.legendre.leggauss(48)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert _gauss_legendre(48)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    # the rules built on the shared arrays leave them untouched
    sn.cap_quadrature(2, sn.north_pole(2), 0.7)
    sn.build_quadrature(2, 94)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
