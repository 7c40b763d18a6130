"""Set grammar membership, the arc rule's pieces, serialization, families, and
weighted measures with radial-integral oracles."""

import math
import typing

import numpy as np
import pytest
from scipy.integrate import quad

import spherenorms as sn
from spherenorms import sets
from spherenorms.quadrature import arc_quadrature
from spherenorms.sets import (
    family_from_dict,
    family_to_dict,
    min_feature_scale,
    set_from_dict,
    set_to_dict,
    validate_set,
)
from spherenorms.measures import measure_from_dict, measure_to_dict, validate_measure


def test_indicator_trivials():
    N = sn.north_pole(2)
    assert sn.indicator(sn.FullSphere(), N) == 1
    assert sn.indicator(sn.EmptySet(), N) == 0
    cap = sn.cap_set(N, math.pi / 2)
    assert sn.indicator(cap, N) == 1
    assert sn.indicator(cap, -N) == 0
    comp = sn.Complement(sn.cap_set(N, math.pi / 3))
    assert sn.indicator(comp, N) == 0
    assert sn.indicator(comp, -N) == 1


def test_boundary_is_inside():
    N = sn.north_pole(2)
    boundary = np.array([math.sin(0.5), 0.0, math.cos(0.5)])
    cap = sn.cap_set(N, 0.5)
    assert sn.indicator(cap, boundary) == 1
    # the closed complement also contains the boundary
    assert sn.indicator(sn.Complement(cap), boundary) == 1


def test_band_membership():
    N = sn.north_pole(2)
    band = sn.Band(N, 0.5, 1.0)
    inside = np.array([math.sin(0.7), 0.0, math.cos(0.7)])
    outside = np.array([math.sin(0.2), 0.0, math.cos(0.2)])
    assert sn.indicator(band, inside) == 1
    assert sn.indicator(band, outside) == 0


@pytest.mark.parametrize("d", [1, 2])
def test_band_poles_are_decided_as_cap_bounds(d):
    # a band from the pole holds it in its interior, as a cap does, so neither closed complement holds it
    axis = sn.north_pole(d)
    assert sn.indicator(sn.Complement(sn.cap_set(axis, 1.0)), axis) == 0
    assert sn.indicator(sn.Complement(sn.Band(axis, 0.0, 1.0)), axis) == 0
    assert sn.indicator(sn.Complement(sn.Band(axis, 1.0, math.pi)), -axis) == 0
    assert sn.indicator(sn.Band(axis, 0.0, 1.0), axis) == sn.indicator(sn.Band(axis, 1.0, math.pi), -axis) == 1


def _on_circle(theta):
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _arc_cases():
    """Six random arcs, one arc wrapping past 2 pi and one of length 2 pi."""
    rng = np.random.default_rng(33)
    starts, lengths = rng.uniform(0.0, 2.0 * math.pi, 6), rng.uniform(0.05, 2.5, 6)
    return [sn.Arcs(np.stack([starts, starts + lengths], axis=1)), sn.Arcs([[5.9, 6.9]]),
            sn.Arcs([[1.0, 1.0 + 2.0 * math.pi]])]


def _off_the_ends(E, theta, margin=1e-9):
    """Whether each angle is more than ``margin`` from every end of E's arcs, and whether it lies in an arc."""
    rel = np.mod(theta[:, None] - E.intervals[:, 0], 2.0 * math.pi)
    off = (np.minimum(rel, 2.0 * math.pi - rel) > margin) & (np.abs(rel - E.intervals[:, 1]) > margin)
    return off.all(axis=1), (rel <= E.intervals[:, 1]).any(axis=1)


@pytest.mark.parametrize("E", _arc_cases(), ids=["random", "wrapping", "whole-circle"])
def test_arcs_are_decided_as_their_caps(E):
    rng = np.random.default_rng(34)
    rule = sn.build_quadrature(1, 0, max_spacing=0.003)
    theta = rng.uniform(0.0, 2.0 * math.pi, 3000)
    for pts, layout in [(_on_circle(theta), None), (rule.nodes, rule.layout)]:
        for spec, caps in [(E, E.caps), (sn.Complement(E), sn.Complement(E.caps))]:
            for strict in (False, True):
                np.testing.assert_array_equal(sn.membership(spec, pts, strict, layout),
                                              sn.membership(caps, pts, strict, layout))
    # away from the arcs' ends the caps hold the arcs' angles
    off, inside = _off_the_ends(E, theta)
    np.testing.assert_array_equal(sn.membership(E, _on_circle(theta))[off], inside[off])


@pytest.mark.parametrize("E", _arc_cases(), ids=["random", "wrapping", "whole-circle"])
@pytest.mark.parametrize("R", [[[math.cos(2.5), -math.sin(2.5)], [math.sin(2.5), math.cos(2.5)]],
                               [[math.cos(2.5), math.sin(2.5)], [math.sin(2.5), -math.cos(2.5)]]],
                         ids=["rotation", "reflection"])
def test_rotated_arcs_hold_the_rotated_points(E, R):
    R = np.array(R)
    theta = np.random.default_rng(35).uniform(0.0, 2.0 * math.pi, 3000)
    off, _ = _off_the_ends(E, theta)
    pts = _on_circle(theta[off])
    image = sn.rotate(E, R)
    np.testing.assert_array_equal(sn.membership(image, pts @ R.T), sn.membership(E, pts))
    np.testing.assert_allclose(np.sort(image.intervals[:, 1]), np.sort(E.intervals[:, 1]), rtol=1e-14)


def test_band_weights_read_the_band_test():
    rng = np.random.default_rng(36)
    axis = sn.north_pole(2)
    ends = [0.3, 1.2, math.pi]  # points on the band's ends, whichever side the test puts them
    pts = np.vstack([sn.random_points(2, 4000, rng), axis, -axis,
                     [[math.sin(a), 0.0, math.cos(a)] for a in ends]])
    for lo, hi in [(0.0, 0.3), (0.3, 1.2), (1.2, math.pi)]:
        mu = sn.BandWeight(axis, lo, hi, inside=1.5, outside=0.25)
        np.testing.assert_array_equal(sn.weight_values(mu, pts),
                                      np.where(sn.membership(sn.Band(axis, lo, hi), pts), 1.5, 0.25))


def test_arcs_membership_and_wrap():
    arcs = sn.Arcs([[-0.5, 0.5]])  # wraps through angle 0
    assert sn.indicator(arcs, np.array([1.0, 0.0])) == 1
    assert sn.indicator(arcs, np.array([math.cos(0.4), math.sin(0.4)])) == 1
    assert sn.indicator(arcs, np.array([math.cos(0.6), math.sin(0.6)])) == 0
    assert sn.indicator(arcs, np.array([-1.0, 0.0])) == 0


def test_membership_of_many_caps_matches_dense():
    # 100 caps on arbitrary points, each tested on the points of its polar band: results must agree with dots
    rng = np.random.default_rng(9)
    centers = sn.random_points(2, 100, rng)
    caps = sn.CapUnion(centers, np.full(100, 0.2))
    pts = sn.random_points(2, 5000, rng)
    got = sn.membership(caps, pts)
    cos_r = math.cos(0.2)
    expected = (pts @ centers.T >= cos_r).any(axis=1)
    assert (got == expected).all()


def test_cap_union_validation():
    N = sn.north_pole(2)
    for radius in (0.0, -0.5, math.pi + 1e-9):
        with pytest.raises(ValueError, match="radii"):
            sn.CapUnion(N, radius)
    with pytest.raises(ValueError, match="one radius per cap"):
        sn.CapUnion(np.stack([N, -N]), np.array([0.5]))


def test_cap_edges_do_not_depend_on_far_caps():
    # points within 3e-16 rad of a cap's edge get the same answer from the cap
    # alone and with 63 far, disjoint caps added
    rng = np.random.default_rng(17)
    ring = 2.0 * math.pi * np.arange(63) / 63
    for _ in range(200):
        R = sn.random_rotation(2, rng)
        c, e1, e2 = R[:, 2], R[:, 0], R[:, 1]
        r = float(rng.uniform(0.01, 1.4))
        phi = rng.uniform(0.0, 2.0 * math.pi, 2000)
        ang = r + rng.uniform(-3e-16, 3e-16, 2000)
        tangent = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
        pts = np.cos(ang)[:, None] * c + np.sin(ang)[:, None] * tangent
        # radius-0.01 caps 0.3 rad from the antipode, 0.03 apart: far from the cap and from each other
        far = -math.cos(0.3) * c + math.sin(0.3) * (np.cos(ring)[:, None] * e1 + np.sin(ring)[:, None] * e2)
        alone = sn.membership(sn.CapUnion(c[None, :], np.array([r])), pts)
        crowded = sn.CapUnion(np.vstack([c, far]), np.concatenate([[r], np.full(63, 0.01)]))
        np.testing.assert_array_equal(sn.membership(crowded, pts), alone)
        # the window kernel's test, products added in coordinate order
        np.testing.assert_array_equal(alone, pts[:, 0] * c[0] + pts[:, 1] * c[1] + pts[:, 2] * c[2] >= math.cos(r))


@pytest.mark.parametrize("spec, point", [
    (sn.cap_set(sn.north_pole(2), 1.0), [1.0, 0.0]),  # answered [False]
    (sn.cap_set(sn.north_pole(1), 1.0), [1.0, 0.0, 0.0]),  # raised IndexError
    (sn.Arcs([[0.0, 1.0]]), [1.0, 0.0, 0.0]),  # answered [True]
    (sn.Complement(sn.Arcs([[0.0, 1.0]])), [1.0, 0.0, 0.0]),
    (sn.Band(sn.north_pole(2), 0.1, 0.5), [1.0, 0.0]),  # raised NumPy's matmul ValueError
], ids=["S2-cap-on-S1", "S1-cap-on-S2", "arcs-on-S2", "arc-complement-on-S2", "S2-band-on-S1"])
def test_membership_refuses_points_of_another_sphere(spec, point):
    with pytest.raises(ValueError, match="coordinates"):
        sn.membership(spec, [point])


# one example of each set kind, and the spheres the kind exists on
_KIND_EXAMPLES = {
    sn.CapUnion: ((1, 2), lambda d: sn.random_cap_union(d, 5, 0.4, seed=d)),
    sn.Band: ((1, 2), lambda d: sn.Band(sn.north_pole(d), 0.3, 1.1)),
    sn.Arcs: ((1,), lambda d: sn.Arcs([[-0.5, 0.7], [2.0, 3.1]])),
    sn.FullSphere: ((1, 2), lambda d: sn.FullSphere()),
    sn.EmptySet: ((1, 2), lambda d: sn.EmptySet()),
    sn.Complement: ((1, 2), lambda d: sn.Complement(sn.cap_set(sn.north_pole(d), 0.8))),
}


@pytest.mark.parametrize("kind", typing.get_args(sets.SetSpec), ids=lambda kind: kind.kind)
def test_every_set_kind_takes_every_set_operation(kind):
    rng = np.random.default_rng(37)
    reflect = {1: np.diag([1.0, -1.0]), 2: np.diag([1.0, 1.0, -1.0])}
    spheres, make = _KIND_EXAMPLES[kind]
    for d in spheres:
        E = make(d)
        validate_set(E, d)
        assert 0.0 < min_feature_scale(E) <= math.pi
        assert set_to_dict(set_from_dict(set_to_dict(E))) == set_to_dict(E)
        rule = sn.build_quadrature(d, 0, max_spacing=0.05)
        for strict in (False, True):
            np.testing.assert_array_equal(sn.membership(E, rule.nodes, strict, rule.layout),
                                          sn.membership(E, rule.nodes, strict))
        pts = sn.random_points(d, 2000, rng)
        for R in (sn.random_rotation(d, rng), sn.random_rotation(d, rng) @ reflect[d]):
            image = sn.rotate(E, R)
            assert type(image) is kind
            np.testing.assert_array_equal(sn.membership(image, pts @ R.T), sn.membership(E, pts))


def test_arc_rule_of_overlapping_caps_and_their_complement():
    # two overlapping caps of radius 0.3 on the circle cover one arc of length 1.1
    c1 = np.array([1.0, 0.0])
    c2 = np.array([math.cos(0.5), math.sin(0.5)])
    spec = sn.CapUnion(np.stack([c1, c2]), np.array([0.3, 0.3]))
    assert arc_quadrature(spec, 16).weights.sum() == pytest.approx(1.1, abs=1e-12)
    assert arc_quadrature(sn.Complement(spec), 16).weights.sum() == pytest.approx(2 * math.pi - 1.1, abs=1e-12)
    assert arc_quadrature(sn.FullSphere(), 16).weights.sum() == pytest.approx(2 * math.pi, abs=1e-12)
    assert arc_quadrature(sn.EmptySet(), 16).n_nodes == 0


@pytest.mark.parametrize("row", [[0.5, 0.5], [0.5, 0.5 - 2.0 * math.pi], [-1.0, -1.0]])
def test_zero_length_arcs_are_refused(row):
    with pytest.raises(ValueError, match="positive length"):
        sn.Arcs([row])


def test_arc_of_length_two_pi_is_the_circle():
    E = sn.Arcs([[0.5, 0.5 + 2.0 * math.pi]])
    assert E.intervals[0, 1] == 2.0 * math.pi
    assert sn.membership(E, sn.random_points(1, 200, np.random.default_rng(3))).all()


def test_random_caps_deterministic():
    a = sn.random_cap_union(2, 10, 0.3, seed=42)
    b = sn.random_cap_union(2, 10, 0.3, seed=42)
    c = sn.random_cap_union(2, 10, 0.3, seed=43)
    assert np.array_equal(a.centers, b.centers)
    assert not np.array_equal(a.centers, c.centers)


def test_set_serialization_round_trip():
    specs = [
        sn.FullSphere(),
        sn.EmptySet(),
        sn.cap_set(sn.north_pole(2), 0.7),
        sn.Band(sn.north_pole(2), 0.2, 0.9),
        sn.Arcs([[0.1, 0.4], [2.0, 2.5]]),
        sn.Complement(sn.cap_set(sn.north_pole(2), 1.0)),
    ]
    for spec in specs:
        data = set_to_dict(spec)
        again = set_to_dict(set_from_dict(data))
        assert data == again


def test_family_round_trip_and_realization():
    fams = [
        sn.FixedFamily(sn.cap_set(sn.north_pole(2), 0.5), label="one-cap"),
        sn.CapNetFamily(0.5, 2.0),
        sn.RandomCapsFamily(count=12, seed=3, radius_over_L=1.0),
    ]
    for fam in fams:
        data = family_to_dict(fam)
        assert family_to_dict(family_from_dict(data)) == data
    net = sn.realize_family(sn.CapNetFamily(0.5, 2.0), 2, 8)
    assert isinstance(net, sn.CapUnion)
    assert net.radii[0] == pytest.approx(0.5 / 8)
    r1 = sn.realize_family(sn.RandomCapsFamily(count=6, seed=3, radius_over_L=1.0), 2, 8)
    r2 = sn.realize_family(sn.RandomCapsFamily(count=6, seed=3, radius_over_L=1.0), 2, 16)
    assert not np.array_equal(r1.centers, r2.centers)  # seed mixed with L


def test_rotate_set_specs():
    rng = np.random.default_rng(10)
    R = sn.random_rotation(2, rng)
    cap = sn.cap_set(sn.north_pole(2), 0.6)
    rot = sn.rotate(cap, R)
    assert np.allclose(rot.centers[0], R @ sn.north_pole(2))
    assert rot.radii[0] == 0.6
    # d=1 rotation shifts arcs
    theta = 0.8
    R1 = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    arcs = sn.Arcs([[0.1, 0.5]])
    shifted = sn.rotate(arcs, R1)
    assert shifted.intervals[0][0] == pytest.approx(0.9, abs=1e-12)


def test_min_feature_scale():
    assert min_feature_scale(sn.FullSphere()) == math.pi
    assert min_feature_scale(sn.cap_set(sn.north_pole(2), 0.25)) == 0.25
    assert min_feature_scale(sn.Arcs([[0.0, 0.3]])) == pytest.approx(0.15)


def test_weight_values():
    N = sn.north_pole(2)
    w = sn.PowerDistanceWeight(2.0, N)
    pts = np.stack([N, -N])
    vals = sn.weight_values(w, pts)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(1.0)
    band = sn.BandWeight(N, 0.0, math.pi / 2, inside=2.0, outside=0.5)
    assert sn.weight_values(band, N[None, :])[0] == 2.0
    prod = sn.ProductWeight((w, band))
    assert sn.weight_values(prod, (-N)[None, :])[0] == pytest.approx(0.5)


def test_measure_validation():
    with pytest.raises(ValueError):
        validate_measure(sn.PowerDistanceWeight(-2.0, sn.north_pole(2)), 2)
    validate_measure(sn.PowerDistanceWeight(-0.5, sn.north_pole(2)), 2)


def test_measure_serialization_round_trip():
    specs = [
        sn.Lebesgue(),
        sn.PowerDistanceWeight(2.0, sn.north_pole(2)),
        sn.BandWeight(sn.north_pole(2), 0.1, 0.9, 1.5, 0.2),
        sn.ProductWeight((sn.Lebesgue(), sn.PowerDistanceWeight(1.0, sn.north_pole(2)))),
    ]
    for mu in specs:
        data = measure_to_dict(mu)
        assert measure_to_dict(measure_from_dict(data)) == data


def test_set_measure_full_sphere():
    rule = sn.build_quadrature(2, 8)
    assert sn.set_measure(sn.FullSphere(), sn.Lebesgue(), rule) == pytest.approx(4 * math.pi, rel=1e-10)
    assert sn.set_measure(sn.EmptySet(), sn.Lebesgue(), rule) == 0.0


def test_set_measure_hemisphere():
    rule = sn.build_quadrature(2, 0, max_spacing=0.02)
    cap = sn.cap_set(sn.north_pole(2), math.pi / 2)
    assert sn.set_measure(cap, sn.Lebesgue(), rule) == pytest.approx(2 * math.pi, rel=0.02)


def test_set_measure_monotone():
    rule = sn.build_quadrature(2, 0, max_spacing=0.05)
    small = sn.cap_set(sn.north_pole(2), 0.4)
    big = sn.cap_set(sn.north_pole(2), 0.9)
    mu = sn.PowerDistanceWeight(2.0, sn.north_pole(2))
    assert sn.set_measure(small, mu, rule) <= sn.set_measure(big, mu, rule)


def test_weighted_cap_mass_radial_oracle():
    # oracle: 2 pi int_0^0.4 (t/pi)^2 sin t dt, computed by 1D quadrature
    expected, err = quad(lambda t: (t / math.pi) ** 2 * math.sin(t), 0.0, 0.4, epsabs=1e-15)
    expected *= 2 * math.pi
    assert err < 1e-12
    mu = sn.PowerDistanceWeight(2.0, sn.north_pole(2))
    got = sn.cap_mass(mu, 2, sn.north_pole(2), 0.4)
    assert got == pytest.approx(expected, rel=1e-10)
    # the global-rule path agrees at indicator accuracy
    rule = sn.build_quadrature(2, 0, max_spacing=0.01)
    via_rule = sn.set_measure(sn.cap_set(sn.north_pole(2), 0.4), mu, rule)
    assert via_rule == pytest.approx(expected, rel=0.05)


def test_regularized_measure():
    assert sn.regularized_measure(sn.Lebesgue(), 16, sn.north_pole(2), d=2) == pytest.approx(1.0, rel=1e-12)
    mu = sn.PowerDistanceWeight(2.0, sn.north_pole(2))
    expected, _ = quad(lambda t: (t / math.pi) ** 2 * math.sin(t), 0.0, 1 / 16)
    expected *= 2 * math.pi / sn.cap_measure(2, 1 / 16)
    got = sn.regularized_measure(mu, 16, sn.north_pole(2), d=2)
    assert got == pytest.approx(expected, rel=1e-8)


def test_regularized_measure_rotation_equivariant():
    rng = np.random.default_rng(12)
    R = sn.random_rotation(2, rng)
    mu = sn.PowerDistanceWeight(2.0, sn.north_pole(2))
    u = sn.random_points(2, 1, rng)[0]
    v1 = sn.regularized_measure(mu, 8, u, d=2)
    v2 = sn.regularized_measure(sn.rotate_measure(mu, R), 8, R @ u, d=2)
    assert v2 == pytest.approx(v1, rel=1e-9)
