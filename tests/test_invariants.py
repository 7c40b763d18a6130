"""Cross-module invariants: monotonicity of the functionals in the set and the
measure, and the arc rule's nodes and weights against the arcs it covers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spherenorms as sn
from spherenorms.quadrature import arc_quadrature


def test_relative_density_monotone_in_set():
    L = 8
    small = sn.random_cap_union(2, 30, 0.4 / L, seed=14)
    big = sn.CapUnion(small.centers, small.radii * 1.5)
    r_small = sn.relative_density(small, sn.Lebesgue(), L, r=2.0, d=2).rho_hat
    r_big = sn.relative_density(big, sn.Lebesgue(), L, r=2.0, d=2).rho_hat
    assert r_small <= r_big + 1e-12


def test_lambda_measure_monotonicity():
    # extra mass inside E raises the concentration floor, extra mass outside lowers it
    L = 5
    E = sn.cap_set(sn.north_pole(2), 1.6)
    rule = sn.build_quadrature(2, 2 * L, oversample=4.0, max_spacing=0.08)
    base = sn.lambda_min(E, sn.Lebesgue(), L, rule=rule).lambda_min
    inside = sn.BandWeight(sn.north_pole(2), 0.0, 1.6, inside=2.0, outside=1.0)
    outside = sn.BandWeight(sn.north_pole(2), 0.0, 1.6, inside=1.0, outside=2.0)
    lam_in = sn.lambda_min(E, inside, L, rule=rule).lambda_min
    lam_out = sn.lambda_min(E, outside, L, rule=rule).lambda_min
    assert lam_in >= base - 1e-9
    assert lam_out <= base + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2 * math.pi),
            st.floats(min_value=0.05, max_value=2.5),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_arc_rule_lies_in_the_arcs_and_weighs_their_length(raw):
    spec = sn.Arcs([[s, s + ln] for s, ln in raw])
    rule = arc_quadrature(spec, 16)
    assert sn.membership(spec, rule.nodes).all()
    # E's length from a fine grid: each of its at most 2 * len(raw) ends moves the count by at most one point
    n = 200_000
    theta = 2 * math.pi * np.arange(n) / n
    grid = sn.membership(spec, np.stack([np.cos(theta), np.sin(theta)], axis=1)).mean() * 2 * math.pi
    assert rule.weights.sum() == pytest.approx(grid, abs=2 * len(raw) * 2 * math.pi / n)


def test_arc_rule_complement_partitions_circle():
    spec = sn.Arcs([[0.3, 1.4], [2.0, 2.2], [5.0, 6.0]])
    total = arc_quadrature(spec, 16).weights.sum() + arc_quadrature(sn.Complement(spec), 16).weights.sum()
    assert total == pytest.approx(2 * math.pi, abs=1e-12)


def test_full_sphere_config_gives_unit_eigenvalues(tmp_path):
    from spherenorms.config import parse_config
    from spherenorms.runner import read_results, run_experiment

    cfg = parse_config(
        """
d: 2
L_list: [2, 4]
family: {kind: fixed, set: {kind: full}}
functionals: [{name: eigen}]
"""
    )
    res, _, rows = run_experiment(cfg, tmp_path)
    assert all(abs(r.value - 1.0) <= 1e-9 for r in rows)
    assert [int(r["L"]) for r in read_results(res)] == [2, 4]
