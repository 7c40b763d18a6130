"""Geodesic geometry, cap measures, rotations, and grids."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spherenorms as sn
from spherenorms import geometry
from spherenorms.errors import NetConstructionError
from spherenorms.geometry import (
    apply_rotation,
    covering_net,
    frame_at,
    rotation_taking,
    uniform_circle,
)


def test_distance_trivials():
    N = sn.north_pole(2)
    assert sn.geodesic_distance(N, N) == 0.0
    assert sn.geodesic_distance(N, -N) == pytest.approx(math.pi)
    equator = np.array([0.0, 1.0, 0.0])
    assert sn.geodesic_distance(N, equator) == pytest.approx(math.pi / 2)


def test_distance_clamps_rounding():
    v = np.array([1.0, 1e-9, 0.0])
    v = v / np.linalg.norm(v)
    assert np.isfinite(sn.geodesic_distance(v, v))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    u, v, w = sn.random_points(2, 3, rng)
    duv = sn.geodesic_distance(u, v)
    dvw = sn.geodesic_distance(v, w)
    duw = sn.geodesic_distance(u, w)
    assert duw <= duv + dvw + 1e-12


def test_cap_measures():
    assert sn.cap_measure(2, math.pi) == pytest.approx(4 * math.pi)
    assert sn.cap_measure(2, math.pi / 2) == pytest.approx(2 * math.pi)
    assert sn.cap_measure(1, 0.37) == pytest.approx(0.74)
    with pytest.raises(ValueError):
        sn.cap_measure(2, 0.0)
    with pytest.raises(ValueError):
        sn.cap_measure(2, 3.5)


def test_cap_measure_additivity():
    # full sphere minus a cap of radius delta is the antipodal cap of radius pi - delta
    for d in (1, 2):
        for delta in (0.2, 1.0, 2.0):
            lhs = sn.cap_measure(d, math.pi) - sn.cap_measure(d, delta)
            rhs = sn.cap_measure(d, math.pi - delta)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_rotation_identity_and_orthogonality_guard():
    N = sn.north_pole(2)
    assert np.allclose(apply_rotation(N, np.eye(3)), N)
    bad = np.eye(3)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        apply_rotation(N, bad)


def test_rotation_taking_maps_u_to_v():
    rng = np.random.default_rng(4)
    for d in (1, 2):
        for _ in range(10):
            u, v = sn.random_points(d, 2, rng)
            R = rotation_taking(u, v)
            assert np.abs(R.T @ R - np.eye(d + 1)).max() < 1e-12
            assert np.allclose(R @ u, v, atol=1e-12)
    # antipodal branch
    u = sn.north_pole(2)
    R = rotation_taking(u, -u)
    assert np.allclose(R @ u, -u, atol=1e-12)
    assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12


def test_rotated_cap_keeps_measure():
    rng = np.random.default_rng(5)
    R = sn.random_rotation(2, rng)
    cap = sn.cap_set(sn.north_pole(2), 0.8)
    rotated = sn.rotate(cap, R)
    rule = sn.build_quadrature(2, 0, max_spacing=0.02)
    m1 = sn.set_measure(cap, sn.Lebesgue(), rule)
    m2 = sn.set_measure(rotated, sn.Lebesgue(), rule)
    # indicator masking on the grid is accurate to roughly one ring of weight
    assert m2 == pytest.approx(m1, rel=0.03)
    assert m1 == pytest.approx(sn.cap_measure(2, 0.8), rel=0.03)


def test_frame_at_sends_pole():
    rng = np.random.default_rng(6)
    for u in sn.random_points(2, 5, rng):
        R = frame_at(u)
        assert np.allclose(R @ sn.north_pole(2), u, atol=1e-12)


def test_random_points_on_sphere():
    rng = np.random.default_rng(0)
    pts = sn.random_points(2, 1000, rng)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    # area-uniform: z-coordinate has mean ~ 0
    assert abs(pts[:, 2].mean()) < 0.1


def test_candidate_centers_resolution():
    pts = sn.candidate_centers(1, 48)
    assert pts.shape == (48, 2)
    pts2 = sn.candidate_centers(2, 48)
    h = 2 * math.pi / 48
    assert pts2.shape[0] == math.ceil(4 * math.pi / h**2)
    # factor * L points, a floor that a window raises until the spacing is below it
    assert sn.Sampling().per_great_circle(8) == 48
    assert sn.Sampling(per_great_circle_factor=3).per_great_circle(8) == 24
    assert sn.Sampling(per_great_circle_factor=3).per_great_circle(8, window=0.125) == 52 > 2 * math.pi / 0.125
    assert sn.Sampling().per_great_circle(8, window=1.0) == 48


def test_covering_net_covers():
    spacing = 0.15
    net = covering_net(2, spacing)
    probe = sn.fibonacci_lattice(4001)
    # geodesic distance from each probe point to the nearest net point
    dots = np.clip(probe @ net.T, -1, 1)
    dist = np.arccos(dots.max(axis=1))
    assert dist.max() <= spacing + 1e-9
    net1 = covering_net(1, 0.1)
    th = uniform_circle(997)
    d1 = np.arccos(np.clip(th @ net1.T, -1, 1)).min(axis=1)
    assert d1.max() <= 0.1


def test_covering_net_certifies_its_overlap(monkeypatch):
    # the cover at spacing 0.15 puts up to a few caps over a probe point
    monkeypatch.setattr(geometry, "_OVERLAP_CAP", 1)
    with pytest.raises(NetConstructionError, match="cover overlap"):
        covering_net(2, 0.15)
