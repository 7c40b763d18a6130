"""The window kernels of functionals.py against direct references: the
density masses against an all-pairs block scan (on random rotations of the
set and centers, and on the edge cases of the ring runs), the
adversary's anchor against its own all-pairs scan, the Poisson scan against
the closed-form kernel summed node by node, the harmonic scan's fine and
coarse patch lower bounds against that closed-form sum (and the coarse
against the fine), the pruned harmonic minimum against the
full scan it replaced, the density kernel's pair blocks and its exact ties,
the cap masses ainfty_check asks for, and the local rules rhinfty_check
builds."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import spherenorms as sn
from spherenorms import concentration as C
from spherenorms import functionals as F
from spherenorms import sets
from spherenorms.geometry import candidate_centers, cap_dots, random_rotation
from spherenorms.quadrature import QuadratureRule, arc_quadrature
from spherenorms.sets import membership
from spherenorms.special import sphere_measure

OLD_BLOCK = 512 * 32768  # entries of one block of the all-pairs scan


def all_pairs_masses(centers, rule, num_values, den_values, num_radius, den_radius):
    """The all-pairs block scan: every center against every node, 512 x 32768
    at a time (a radius beyond pi is the whole sphere, as at pi)."""
    cos_num, cos_den = math.cos(min(num_radius, math.pi)), math.cos(min(den_radius, math.pi))
    num, den = np.zeros(centers.shape[0]), np.zeros(centers.shape[0])
    for c0 in range(0, centers.shape[0], 512):
        cc = centers[c0 : c0 + 512]
        for i0 in range(0, rule.n_nodes, 32768):
            D = cc @ rule.nodes[i0 : i0 + 32768].T
            num[c0 : c0 + 512] += (D >= cos_num) @ num_values[i0 : i0 + 32768]
            den[c0 : c0 + 512] += (D >= cos_den) @ den_values[i0 : i0 + 32768]
    return num, den


def assert_masses_match(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g == 0.0, w == 0.0)
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)


SETS = {
    1: sn.Arcs([[-1.2, 0.4], [2.2, 3.0]]),
    2: sn.random_cap_union(2, 12, 0.35, seed=4),
}


def window_case(d, L, seed, empty=False):
    """Centers, rule and the (indicator-weighted, plain) node values of SETS[d].

    The set and the centers take two random rotations; the rule stays the
    product rule the kernel needs.  The dot product of a pair within a
    rounding of cos(radius) may round either way in the two scans (a BLAS
    product against a per-pair one); rotating the centers keeps exact
    alignments, such as the antipodal pairs of two uniform circle grids at
    radius pi, out of these cases.  Exact ties are tested with exactly
    representable products below."""
    rng = np.random.default_rng(seed)
    E = sn.EmptySet() if empty else sn.rotate(SETS[d], random_rotation(d, rng))
    rule = sn.build_quadrature(d, 0, max_spacing=0.4 / L)
    centers = candidate_centers(d, 6 * L) @ random_rotation(d, rng).T
    den = rule.weights * (1.0 + rng.random(rule.n_nodes))
    num = den * membership(E, rule.nodes)
    return centers, rule, num, den


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.integers(0, 2**31 - 1),
    st.floats(0.01, 4.0),
    st.floats(0.01, 4.0),
)
def test_local_masses_match_all_pairs_scan(d, seed, num_radius, den_radius):
    centers, rule, num, den = window_case(d, 6, seed)
    got = F._local_masses(centers, rule, [(num, num_radius), (den, den_radius)])
    assert_masses_match(got, all_pairs_masses(centers, rule, num, den, num_radius, den_radius))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "num_radius, den_radius",
    [(2.0 / 8, 2.0 / 16), (0.05, 0.3), (math.pi, math.pi), (math.pi, 0.2), (3.5, 5.0)],
    ids=["regularize-r/L-r/2L", "num-narrower", "pi", "pi-and-narrow", "beyond-pi"],
)
@pytest.mark.parametrize("empty", [False, True], ids=["set", "empty"])
def test_local_masses_cases(d, num_radius, den_radius, empty):
    centers, rule, num, den = window_case(d, 8, seed=11, empty=empty)
    got = F._local_masses(centers, rule, [(num, num_radius), (den, den_radius)])
    assert_masses_match(got, all_pairs_masses(centers, rule, num, den, num_radius, den_radius))
    if empty:
        assert not got[0].any()
    if den_radius >= math.pi:
        # a cap of radius pi or more is the whole sphere
        np.testing.assert_allclose(got[1], den.sum(), rtol=1e-12)


def sphere_points(polar, azimuth):
    """Points of S^2 at the given polar angles and azimuths (broadcast)."""
    polar, azimuth = np.broadcast_arrays(np.asarray(polar, dtype=float), np.asarray(azimuth, dtype=float))
    return np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=-1)


EDGE_RULES = {1: sn.build_quadrature(1, 0, max_spacing=0.05), 2: sn.build_quadrature(2, 0, max_spacing=0.05)}


def edge_case_masses(d, centers, num_radius, den_radius):
    """The kernel's masses on EDGE_RULES[d] with SETS[d]'s values, checked
    against the all-pairs scan; returns (num, den, num values, den values)."""
    rule = EDGE_RULES[d]
    den = rule.weights * (1.0 + np.random.default_rng(7).random(rule.n_nodes))
    num = den * membership(SETS[d], rule.nodes)
    got = F._local_masses(centers, rule, [(num, num_radius), (den, den_radius)])
    assert_masses_match(got, all_pairs_masses(centers, rule, num, den, num_radius, den_radius))
    return got[0], got[1], num, den


@pytest.mark.parametrize("num_radius, den_radius", [(0.4, 0.15), (1.3, 0.05), (2.8, 0.6)])
def test_local_masses_windows_wrapping_past_phi_zero(num_radius, den_radius):
    # centers at and about azimuth 0 (and just below 2 pi): every window's run
    # of longitudes crosses phi = 0 on each ring it holds
    step = 2.0 * math.pi / EDGE_RULES[2].descriptor["n_phi"]
    azimuths = [0.0, 0.02, -0.02, 0.5 * step, -0.5 * step, 2.0 * math.pi - 1e-9]
    centers = sphere_points(np.array([0.3, 1.2, 0.5 * math.pi, 2.5])[:, None], azimuths).reshape(-1, 3)
    edge_case_masses(2, centers, num_radius, den_radius)
    circle = np.stack([np.cos(azimuths), np.sin(azimuths)], axis=1)
    edge_case_masses(1, circle, num_radius, den_radius)


@pytest.mark.parametrize("radius", [0.05, 0.3, 0.5 * math.pi, 2.9, math.pi])
def test_local_masses_centers_on_the_axis_count_whole_rings(radius):
    # at c = +-e_z every node of a ring has the same dot product, so each ring
    # counts whole or not at all; the pole's longitude division must not warn
    rule = EDGE_RULES[2]
    n_phi = rule.descriptor["n_phi"]
    centers = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, 1.0]])
    edge_case_masses(2, centers, radius, 0.5 * radius)
    (held,) = F._local_masses(centers, rule, [(np.ones(rule.n_nodes), radius)])
    assert np.all(held % n_phi == 0)
    assert held[0] == held[2] == n_phi * np.count_nonzero(rule.nodes[::n_phi, 2] >= math.cos(radius))


@pytest.mark.parametrize("num_radius, den_radius", [(math.pi, 3.5), (math.pi - 1e-3, math.pi - 0.05),
                                                    (math.pi - 1e-9, 5.0)])
def test_local_masses_near_and_past_the_antipode(num_radius, den_radius):
    # at radius pi or more every ring is whole; just short of pi only the
    # rings about the antipode lose a run of longitudes
    for d in (1, 2):
        centers = candidate_centers(d, 18) @ random_rotation(d, np.random.default_rng(d)).T
        num, den, num_values, den_values = edge_case_masses(d, centers, num_radius, den_radius)
        if den_radius >= math.pi:
            np.testing.assert_allclose(den, den_values.sum(), rtol=1e-12)
        assert np.all(num <= num_values.sum() * (1.0 + 1e-12))


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["north-of-ring", "south-of-ring"])
@pytest.mark.parametrize("ring, radius", [(3, 0.1), (31, 0.7), (59, 0.1)])
def test_local_masses_ring_tangent_to_the_window_is_empty(side, ring, radius):
    # the window's edge touches ring j at the center's longitude, which lies
    # half a step between two nodes: the run on ring j is empty, and the rings
    # beyond it are out of reach
    rule = EDGE_RULES[2]
    n_phi = rule.descriptor["n_phi"]
    polar = math.atan2(rule.nodes[ring * n_phi, 0], rule.nodes[ring * n_phi, 2])
    center = sphere_points(polar + side * radius, math.pi / n_phi)[None, :]
    edge_case_masses(2, center, radius, 1.5 * radius)
    on_ring = np.zeros(rule.n_nodes)
    on_ring[ring * n_phi : (ring + 1) * n_phi] = 1.0
    (held,) = F._local_masses(center, rule, [(on_ring, radius)])
    assert held[0] == 0.0
    (held,) = F._local_masses(center, rule, [(on_ring, radius + 1e-2)])
    assert held[0] > 0.0


def boundary_radii(coords, radius):
    """For the node coordinate whose arccos is nearest ``radius`` and is the
    cosine of some float64 radius: the smallest such radius r, the next radius
    below it (whose cosine is larger) and the first radius above it whose
    cosine is smaller."""
    for level in coords[np.argsort(np.abs(np.arccos(coords) - radius))]:
        below, above = [math.acos(level)], [math.acos(level)]
        for _ in range(100):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], 4.0))
        exact = [r for r in below + above if math.cos(r) == level]
        if exact:
            r_out = r_past = exact[0]
            while math.cos(r_out) == level:
                r_out = np.nextafter(r_out, 0.0)
            while math.cos(r_past) == level:
                r_past = np.nextafter(r_past, 4.0)
            return np.nextafter(r_out, 4.0), r_out, r_past
    raise AssertionError("no node coordinate is the cosine of a float64 radius")


@pytest.mark.parametrize("radius, d", [(2.0, 1), (2.0, 2), (0.3, 1), (0.3, 2), (1e-3, 1), (3.0, 1), (3.0, 2)])
def test_local_masses_boundary_is_closed(radius, d):
    # a center on a coordinate axis meets every node of a product rule at an
    # exact dot product: e_z meets each ring of the S^2 rule at its z, e_x each
    # node of the S^1 rule at its x.  A radius near ``radius`` whose cosine is
    # exactly one of those coordinates counts the nodes there; the next radius
    # below, with a larger cosine, drops them, and the next one above keeps
    # them.  On S^1 the nodes at +-phi may differ in x by a rounding, so a run
    # may be lopsided
    rule = sn.build_quadrature(d, 0, max_spacing=min(0.1, radius))
    axis = 2 if d == 2 else 0
    coord = rule.nodes[:, axis]
    radii = boundary_radii(np.unique(coord), radius)
    center = np.eye(d + 1)[axis][None, :]
    got = F._local_masses(center, rule, [(np.ones(rule.n_nodes), r) for r in radii])
    for held, r in zip(got, radii):
        assert held[0] == np.count_nonzero(coord >= math.cos(r))
    assert got[1][0] < got[0][0] <= got[2][0]
    got = F._local_masses(center, rule, [(rule.weights, radii[0]), (rule.weights, radii[1])])
    assert_masses_match(got, all_pairs_masses(center, rule, rule.weights, rule.weights, radii[0], radii[1]))


@pytest.mark.parametrize("d", [1, 2])
def test_local_masses_tie_exactly_on_equal_ring_counts(d):
    # an indicator times the rule's weights: windows holding equally many
    # kept nodes on each ring get bit-equal masses, whichever runs hold them,
    # as the adversary's anchor needs to take the first of tied windows.  The
    # centers share three polar angles on S^2, so that ring counts repeat;
    # plain running sums of the values break some of these ties
    rng = np.random.default_rng(d)
    rule = sn.build_quadrature(d, 0, max_spacing=0.05)
    n_phi = rule.descriptor["n_phi" if d == 2 else "n"]
    kept = rng.random(rule.n_nodes) < 0.5
    azimuths = rng.uniform(0.0, 2.0 * math.pi, 200)
    if d == 1:
        centers = np.stack([np.cos(azimuths), np.sin(azimuths)], axis=1)
    else:
        centers = sphere_points(np.repeat([0.4, 1.5, 2.9], 200), np.tile(azimuths, 3))
    radius = 0.12  # about five nodes a ring, on up to five rings
    (mass,) = F._local_masses(centers, rule, [(rule.weights * kept, radius)])
    held = (cap_dots(centers.T[:, :, None], rule.nodes.T[:, None, :]) >= math.cos(radius)) & kept
    _, group = np.unique(held.reshape(centers.shape[0], -1, n_phi).sum(axis=2), axis=0, return_inverse=True)
    ties = 0
    for g in np.unique(group):
        same = mass[group == g]
        np.testing.assert_array_equal(same, same[0])
        ties += same.size - 1
    assert ties >= centers.shape[0] // 4


def test_density_of_a_rule_without_rings_is_refused():
    # the window kernel reads rings of equispaced longitudes; a product rule
    # turned off the pole, or one without a ring layout, is refused
    E = sn.cap_set(sn.north_pole(2), 1.0)
    rule = sn.build_quadrature(2, 0, max_spacing=0.2)
    turned = QuadratureRule(2, rule.nodes @ random_rotation(2, np.random.default_rng(5)).T, rule.weights, 0,
                            dict(rule.descriptor))
    arcs = arc_quadrature(SETS[1], 8)
    for bad in (turned, sn.cap_quadrature(2, sn.north_pole(2), 1.0)):
        with pytest.raises(ValueError, match="product"):
            sn.density_profile(E, sn.Lebesgue(), 4, 0.5, 0.5, rule=bad)
    with pytest.raises(ValueError, match="product"):
        sn.density_profile(SETS[1], sn.Lebesgue(), 4, 0.5, 0.5, rule=arcs)


def test_density_blocks_stay_within_old_block(monkeypatch):
    # a window of radius 2.5 reaches most of the rule's 53 rings from each of
    # the 26,402 grid centers at L=48: 1.4 million (center, ring) pairs, more
    # than _PAIR_BLOCK, so the kernel runs block by block, and every block of
    # pairs must stay within one block of the all-pairs scan
    rule = sn.build_quadrature(2, 0, max_spacing=0.06)
    blocks = []
    real_blocks = sets._center_blocks

    def recorded(counts):
        out = real_blocks(counts)
        blocks.extend(int(counts[a:b].sum()) for a, b in out)
        assert [a for a, _ in out] == [0] + [b for _, b in out[:-1]] and out[-1][1] == counts.shape[0]
        return out

    monkeypatch.setattr(sets, "_center_blocks", recorded)
    E = sn.cap_set(sn.north_pole(2), 1.0)
    rep = sn.density_profile(E, sn.Lebesgue(), 48, 2.5, 2.5, rule=rule)
    assert len(blocks) > 1 and sum(blocks) > sets._PAIR_BLOCK
    assert max(blocks) <= sets._PAIR_BLOCK <= OLD_BLOCK
    centers = candidate_centers(2, rep.resolution["per_great_circle"])
    ind = membership(E, rule.nodes).astype(float)
    num, den = all_pairs_masses(centers, rule, rule.weights * ind, rule.weights, 2.5, 2.5)
    assert rep.rho_hat == pytest.approx(float((num / den).min()), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_poisson_scan_matches_kernel_node_by_node(d):
    centers, rule, num, _ = window_case(d, 5, seed=3)
    mask = num > 0
    nodes, values = rule.nodes[mask], rule.weights[mask]
    rho = 1.0 - 1.0 / 5
    got, pairs = F._poisson_sums(centers, nodes, values, rho, d)
    assert pairs == centers.shape[0] * nodes.shape[0]
    # the kernel (1 - |x|^2) / |x - u|^(d+1) in closed form, node by node
    want = np.array([values @ ((1.0 - rho**2) / np.linalg.norm(rho * c - nodes, axis=1) ** (d + 1)) for c in centers])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def counted_cap_rules(monkeypatch):
    """The (center, radius) pairs of every cap rule built, as built: ``cap_rules`` is counted in every
    module that calls it (``cap_quadrature`` goes through it), all into one list."""
    pairs, real_cap_rules = [], sn.quadrature.cap_rules

    def counted(d, centers, radii):
        for u, r, rule in zip(np.atleast_2d(centers), radii, real_cap_rules(d, centers, radii)):
            pairs.append((tuple(u), float(r)))
            yield rule

    for module in (F, sn.measures, sn.quadrature):
        monkeypatch.setattr(module, "cap_rules", counted)
    return pairs


def test_ainfty_asks_each_cap_mass_once(monkeypatch):
    # 13 centers (12 samples and the pole) x 10 distinct caps: radii 0.2, 0.5,
    # 1.0 and their halves and quarters (0.25 and 0.5 repeat), plus three
    # off-center subcaps; one cap_masses call asks for all 156 (center, radius)
    # pairs and builds and sums each distinct one once; the values are those
    # computed with every repeat
    asked, real_cap_masses = [], F.cap_masses

    def counted(mu, d, centers, radii):
        asked.append(len(radii))
        return real_cap_masses(mu, d, centers, radii)

    monkeypatch.setattr(F, "cap_masses", counted)
    built = counted_cap_rules(monkeypatch)
    rep = F.ainfty_check(sn.PowerDistanceWeight(1.5, np.array([1.0, 0.0])), 1, seed=0, n_caps=12)
    assert asked == [156] and len(built) == len(set(built)) == 130
    B, beta, passed = rep.ainfty
    assert passed and beta == 2.0 and rep.witness is None
    assert B == pytest.approx(2.168274494262604, rel=1e-12)
    per_beta = {0.5: 16.000000000000096, 1.0: 8.000000000000048, 2.0: 2.168274494262604}
    assert rep.config["per_beta"] == pytest.approx(per_beta, rel=1e-12)


@pytest.mark.parametrize("d, mu, C", [
    (1, sn.PowerDistanceWeight(1.5, np.array([1.0, 0.0])), 3.1819052892902437),
    (2, sn.PowerDistanceWeight(2.0, np.array([0.0, 0.0, 1.0])), 3.151610601517901),
])
def test_rhinfty_builds_each_local_rule_once(monkeypatch, d, mu, C):
    # 13 centers x 3 radii, one rule each, counted wherever a cap rule is built:
    # the cap mass comes from the rule built for the sup; C is the value computed
    # when cap_mass built it again
    builds = counted_cap_rules(monkeypatch)
    rep = F.rhinfty_check(mu, d, seed=0, n_caps=12)
    assert len(builds) == len(set(builds)) == 39
    assert rep.rhinfty == (C, True) and rep.witness is None
    assert rep.config == {"seed": 0, "n_caps": 12, "radii": [0.2, 0.5, 1.0]}


@pytest.mark.parametrize("check, polar, frames", [
    (lambda mu: F.doubling_constant(mu, [0.1, 0.2, 0.4], d=2, seed=5), 4, 25),
    (lambda mu: F.rhinfty_check(mu, 2, seed=5), 3, 13),
    (lambda mu: F.ainfty_check(mu, 2, seed=5), 7, 52),
], ids=["doubling", "rhinfty", "ainfty"])
def test_weight_checks_build_each_polar_rule_and_frame_once(monkeypatch, check, polar, frames):
    # weighted-sphere's weights job: an S^2 cap rule is a polar ring rule of its
    # radius turned by the frame at its center, so a check builds one polar rule
    # per distinct radius (doubling: 0.1, 0.2, 0.4, 0.8; A_infinity: 0.2, 0.5, 1.0,
    # their halves and quarters) and one frame per distinct center (25 doubling
    # centers, 13 check centers, and 39 off-center subcaps for A_infinity), where
    # it built both for each of its 100, 39 and 130 caps; nothing outlives a call,
    # so a second call builds them all again and reports the same
    built = []
    for name in ("_ring_rule", "frame_at"):
        def counted(*args, real=getattr(sn.quadrature, name), name=name):
            built.append(name)
            return real(*args)

        monkeypatch.setattr(sn.quadrature, name, counted)
    mu = sn.PowerDistanceWeight(2.0, np.array([0.0, 0.0, 1.0]))
    for calls in (1, 2):
        rep = check(mu)
        assert (built.count("_ring_rule"), built.count("frame_at")) == (calls * polar, calls * frames)
        assert calls == 1 or repr(rep) == first
        first = repr(rep)


def full_scan_sums(E, L, rule):
    """The Poisson sum at every grid center as the full scan found it, 64
    centers x 2048 nodes at a time.  Returns (sums, n_masked)."""
    centers = candidate_centers(rule.d, 6 * L)
    mask = membership(E, rule.nodes)
    rho = 1.0 - 1.0 / L
    lifted = np.hstack([-2.0 * rho * centers, np.full((centers.shape[0], 1), 1.0 + rho * rho)])
    nodes = np.hstack([rule.nodes[mask], np.ones((int(mask.sum()), 1))])
    values = rule.weights[mask] / sphere_measure(rule.d) * (1.0 - rho * rho)
    sums = np.zeros(centers.shape[0])
    for c0 in range(0, centers.shape[0], 64):
        for i0 in range(0, nodes.shape[0], 2048):
            t = lifted[c0 : c0 + 64] @ nodes[i0 : i0 + 2048].T
            sums[c0 : c0 + 64] += F._poisson_from_dots(t, rule.d) @ values[i0 : i0 + 2048]
    return sums, int(mask.sum())


def assert_infimum_matches_full_scan(E, L, rule):
    """The pruned minimum equals the full scan's to 1e-14 relative, at the full
    scan's first argmin where its minimum beats the runner-up by more than
    that, else at a center whose full sum ties the minimum to 1e-14."""
    rep = sn.harmonic_infimum(E, L, rule=rule)
    sums, n_masked = full_scan_sums(E, L, rule)
    centers = candidate_centers(rule.d, 6 * L)
    i = int(np.argmin(sums))
    value, runner_up = sums[i], np.partition(sums, 1)[1]
    if runner_up - value > 1e-14 * value:
        np.testing.assert_array_equal(rep.argmin_center, centers[i])
    else:
        (j,) = np.flatnonzero((centers == rep.argmin_center).all(axis=1))
        assert sums[j] - value <= 1e-14 * value
    assert abs(rep.delta_hat - value) <= 1e-14 * value
    assert rep.resolution["n_centers"] == centers.shape[0]
    return rep, centers.shape[0] * n_masked


# node spacings giving about 6,300 nodes on S^1 and 7,900 on S^2, so most
# sets keep more than one 2048-node chunk for the pruning to act between
PRUNE_SPACING = {1: 0.001, 2: 0.05}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(2, 24), st.sampled_from(["caps", "arcs", "band", "complement"]),
       st.integers(0, 2**31 - 1))
# five caps covering the circle: every Poisson sum is 1 to rounding, a tie
@example(1, 2, "caps", 59)
@example(1, 2, "caps", 2**31 - 1)
def test_pruned_harmonic_infimum_matches_full_scan(d, L, kind, seed):
    if d == 2 and kind == "arcs":
        kind = "caps"
    rule = sn.build_quadrature(d, 0, max_spacing=PRUNE_SPACING[d])
    rep, all_pairs = assert_infimum_matches_full_scan(anchor_set(d, kind, seed), L, rule)
    assert rep.resolution["pairs_summed"] <= all_pairs


def test_pruned_harmonic_infimum_skips_most_of_fixed_cap():
    # the fixed-cap sweep's set and rule at L=16: exact, from a fraction of the terms
    E = sn.cap_set(sn.north_pole(2), math.pi / 3)
    rule = sn.Sampling().rule(E, 2, window=1.0 / 16)
    rep, all_pairs = assert_infimum_matches_full_scan(E, 16, rule)
    assert rep.resolution["pairs_summed"] <= 0.5 * all_pairs
    # the lowest-bound center is summed alone first, so no block of 64 is summed in full against a
    # best of +inf (the single-level scan summed 64 x the masked nodes)
    n_masked = all_pairs // rep.resolution["n_centers"]
    assert rep.resolution["pairs_summed"] <= 2 * n_masked


def patch_case(d, L, kind, seed, fine):
    """The masked nodes, their values and rho of a seeded set at degree L, some
    grid centers and masked nodes (where t = |rho c - u|^2 falls to 1/L^2),
    and each of those centers' closed-form Poisson sum node by node; None when
    the mask is empty."""
    if d == 2 and kind == "arcs":
        kind = "caps"
    E = anchor_set(d, kind, seed)
    rule = sn.build_quadrature(d, 0, max_spacing=PRUNE_SPACING[d] if fine else 2.0 / L)
    mask = membership(E, rule.nodes)
    if not mask.any():
        return None
    nodes, values, rho = rule.nodes[mask], rule.weights[mask] / sphere_measure(d), 1.0 - 1.0 / L
    grid = candidate_centers(d, 6 * L)
    centers = np.vstack([grid[:: grid.shape[0] // 256 + 1], nodes[:: nodes.shape[0] // 64 + 1]])
    want = np.array([values @ ((1.0 - rho**2) / np.linalg.norm(rho * c - nodes, axis=1) ** (d + 1)) for c in centers])
    return E, rule, nodes, values, rho, centers, want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(2, 64), st.sampled_from(["caps", "arcs", "band", "complement"]),
       st.integers(0, 2**31 - 1), st.booleans())
# five caps covering the circle: every Poisson sum is 1 to rounding, a tie
@example(1, 2, "caps", 59, True)
@example(1, 2, "caps", 2**31 - 1, True)
# node spacing about 2/L: every arc patch holds one node on S^1, and the equatorial patches on S^2
@example(1, 64, "arcs", 7, False)
@example(2, 64, "band", 3, False)
def test_patch_bound_is_below_every_full_sum(d, L, kind, seed, fine):
    case = patch_case(d, L, kind, seed, fine)
    assume(case is not None)
    E, rule, nodes, values, rho, centers, want = case
    means, masses = F._patches(nodes, values, L)
    assert masses.sum() == pytest.approx(values.sum(), rel=1e-12)
    bound, pairs = F._poisson_sums(centers, means, masses, rho, d)
    assert pairs == centers.shape[0] * masses.size
    assert np.all(bound <= want * (1.0 + F._BOUND_MARGIN))
    if masses.size == nodes.shape[0]:  # one node per patch: Jensen's inequality is an equality
        np.testing.assert_allclose(bound, want, rtol=F._BOUND_MARGIN, atol=0.0)
    if d == 1 and fine:
        rep, _ = assert_infimum_matches_full_scan(E, L, rule)
        assert rep.resolution["patches"] == masses.size


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(2, 64), st.sampled_from(["caps", "arcs", "band", "complement"]),
       st.integers(0, 2**31 - 1), st.booleans())
# L < 4: a coarse patch is wider than 1 rad
@example(2, 2, "complement", 5, True)
@example(2, 3, "band", 11, True)
@example(1, 3, "arcs", 2, True)
@example(1, 2, "caps", 59, True)  # five caps covering the circle
@example(2, 64, "band", 3, False)  # the equatorial fine patches hold one node each
def test_coarse_patch_bound_is_below_the_fine_one(d, L, kind, seed, fine):
    # the coarse patches group the fine ones by mass: the same nodes, so Jensen's inequality keeps
    # their bound below the fine bound and below every full sum, to the rounding margin
    case = patch_case(d, L, kind, seed, fine)
    assume(case is not None)
    _, _, nodes, values, rho, centers, want = case
    means, masses = F._patches(nodes, values, L)
    coarse_means, coarse_masses = F._patches(means, masses, L / F._COARSE_SIDE)
    assert coarse_masses.size <= masses.size
    assert coarse_masses.sum() == pytest.approx(masses.sum(), rel=1e-12)
    fine_bound, _ = F._poisson_sums(centers, means, masses, rho, d)
    coarse_bound, pairs = F._poisson_sums(centers, coarse_means, coarse_masses, rho, d)
    assert pairs == centers.shape[0] * coarse_masses.size
    assert np.all(coarse_bound <= fine_bound * (1.0 + F._BOUND_MARGIN))
    assert np.all(coarse_bound <= want * (1.0 + F._BOUND_MARGIN))


@pytest.mark.parametrize("E, L, fraction, patch_fraction", [
    # fixed-cap: about 36% before the patch bound; the single-level scan bounds every center finely (1.0)
    (sn.cap_set(sn.north_pole(2), math.pi / 3), 16, 0.05, 0.15),
    (sn.realize_family(sn.CapNetFamily(0.5, 2.0), 2, 12), 12, 0.10, None),  # dense-net, about 70% before
], ids=["fixed-cap", "dense-net"])
def test_patch_bound_sums_few_pairs_of_the_sweeps(E, L, fraction, patch_fraction, monkeypatch):
    # the sweeps' sets and rules: the patch bounds screen out all but a few
    # centers, and the minimum is still the full scan's
    calls, poisson_sums = [], F._poisson_sums

    def recorded(centers, points, values, rho, d, bound=math.inf):
        sums, pairs = poisson_sums(centers, points, values, rho, d, bound)
        calls.append((centers.shape[0], points.shape[0], pairs))
        return sums, pairs

    monkeypatch.setattr(F, "_poisson_sums", recorded)
    rule = sn.Sampling().rule(E, 2, window=1.0 / L)
    rep, all_pairs = assert_infimum_matches_full_scan(E, L, rule)
    res = rep.resolution
    assert res["pairs_summed"] <= fraction * all_pairs
    # exact accounting: the coarse pass bounds every center, the fine pass each center at most once,
    # and every other call sums the masked nodes
    n_masked = int(rule.inside(E).sum())
    assert len({res["coarse_patches"], res["patches"], n_masked}) == 3
    assert res["coarse_pairs"] == res["n_centers"] * res["coarse_patches"]
    coarse = [c for c in calls if c[1] == res["coarse_patches"]]
    assert coarse == [(res["n_centers"], res["coarse_patches"], res["coarse_pairs"])]
    fine = [(n, pairs) for n, points, pairs in calls if points == res["patches"]]
    assert all(pairs == n * res["patches"] for n, pairs in fine)
    assert sum(n for n, _ in fine) <= res["n_centers"]
    assert res["patch_pairs"] == res["coarse_pairs"] + sum(pairs for _, pairs in fine)
    assert res["pairs_summed"] == sum(pairs for _, points, pairs in calls if points == n_masked)
    if patch_fraction is not None:
        assert res["patch_pairs"] <= patch_fraction * res["n_centers"] * res["patches"]


@pytest.mark.parametrize("d", [1, 2])
def test_harmonic_infimum_of_empty_set_reports_its_grid(d):
    rep = sn.harmonic_infimum(sn.EmptySet(), 4, d=d)
    assert rep.delta_hat == 0.0
    assert rep.resolution["n_centers"] == candidate_centers(d, sn.Sampling().per_great_circle(4)).shape[0]
    keys = ["pairs_summed", "patches", "patch_pairs", "coarse_patches", "coarse_pairs"]
    assert [rep.resolution[k] for k in keys] == [0] * len(keys)
    assert rep.resolution["rule"] == sn.Sampling().rule(sn.EmptySet(), d, window=1.0 / 4).descriptor


def all_pairs_anchor(spec, rule, mask):
    """The adversary's anchor as the all-pairs scan computed it: window masses
    at radius 2/L summed over every node, 8,192 nodes at a time.  Each mass is
    summed in node order, so windows holding equally many nodes of one weight
    (the equal-weight d=1 rule) tie exactly, as they do in the kernel, and
    the argmin takes the first of them; a BLAS product rounds such sums by
    where their nodes sit and breaks the tie at random."""
    if not mask.any() or mask.all():
        return rule.nodes[0]
    centers = candidate_centers(spec.d, 4 * max(spec.L, 3))
    cos_r = math.cos(min(2.0 / max(spec.L, 1), math.pi))
    ind = mask.astype(float) * rule.weights
    num = np.zeros(centers.shape[0])
    for i0 in range(0, rule.n_nodes, 8192):
        D = centers @ rule.nodes[i0 : i0 + 8192].T
        num += np.cumsum(np.where(D >= cos_r, ind[i0 : i0 + 8192], 0.0), axis=1)[:, -1]
    return centers[int(np.argmin(num))]


def anchor_set(d, kind, seed):
    """A seeded set of the given kind: a cap union, arcs (d=1), a band, or a
    cap union's complement."""
    rng = np.random.default_rng(seed)
    caps = sn.random_cap_union(d, int(rng.integers(1, 7)), float(rng.uniform(0.15, 1.2)), seed)
    if kind == "caps":
        return caps
    if kind == "complement":
        return sn.Complement(caps)
    if kind == "arcs":
        starts = np.sort(rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(1, 4))))
        return sn.Arcs([[a, a + float(rng.uniform(0.15, 1.5))] for a in starts])
    lo = float(rng.uniform(0.0, 2.5))
    return sn.Band(sn.random_points(d, 1, rng)[0], lo, lo + float(rng.uniform(0.15, math.pi - lo)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(2, 20), st.sampled_from(["caps", "arcs", "band", "complement"]),
       st.integers(0, 2**31 - 1))
@example(1, 2, "complement", 123347)  # three candidate windows hold equally many equal-weight nodes
def test_anchor_matches_all_pairs_scan(d, L, kind, seed):
    if d == 2 and kind == "arcs":
        kind = "caps"
    E = anchor_set(d, kind, seed)
    spec = sn.BasisSpec(d, L)
    rule = sn.Sampling().rule(E, d, 2 * L)
    mask = membership(E, rule.nodes)
    np.testing.assert_array_equal(C._thin_density_center(spec, rule, mask), all_pairs_anchor(spec, rule, mask))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("fill", [False, True], ids=["empty", "full"])
def test_anchor_of_empty_and_full_mask(d, fill):
    spec = sn.BasisSpec(d, 6)
    rule = sn.build_quadrature(d, 12)
    mask = np.full(rule.n_nodes, fill)
    got = C._thin_density_center(spec, rule, mask)
    np.testing.assert_array_equal(got, all_pairs_anchor(spec, rule, mask))
    np.testing.assert_array_equal(got, rule.nodes[0])
