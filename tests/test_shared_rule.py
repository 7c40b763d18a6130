"""One discretization per (set, degree): a rule declares the exactness of its
node layout, classifies a set's nodes once, and a sweep job hands every
functional of its degree one rule per layout."""

import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import spherenorms as sn
from spherenorms import quadrature, sets
from spherenorms.acceptance import CONFIG_DENSE_NET, CONFIG_FIXED_CAP, CONFIG_REGULARIZATION
from spherenorms.config import config_hash, load_config, parse_config
from spherenorms.runner import _job, run_experiment


@pytest.fixture
def classified(monkeypatch):
    """Point counts of the outermost ``sets.membership`` calls, from every
    package module that holds the function."""
    real, calls, depth = sets.membership, [], [0]

    def counted(spec, points, *args, **kwargs):
        depth[0] += 1
        try:
            mask = real(spec, points, *args, **kwargs)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            calls.append(int(mask.shape[0]))
        return mask

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spherenorms" and getattr(module, "membership", None) is real:
            monkeypatch.setattr(module, "membership", counted)
    return calls


@pytest.fixture
def classified_layouts(monkeypatch):
    """(set, rule layout) of every ``membership`` call ``QuadratureRule.inside`` makes;
    the list holds each set, so its id is not reused while the list lives."""
    real_inside, real_membership, calls, layout = quadrature.QuadratureRule.inside, quadrature.membership, [], []

    def inside(rule, E):
        layout.append(rule.layout)
        try:
            return real_inside(rule, E)
        finally:
            layout.pop()

    def counted(spec, points, *args, **kwargs):
        calls.append((spec, layout[-1]))
        return real_membership(spec, points, *args, **kwargs)

    monkeypatch.setattr(quadrature.QuadratureRule, "inside", inside)
    monkeypatch.setattr(quadrature, "membership", counted)
    return calls


@pytest.mark.parametrize("cfg, job_calls", [
    (load_config(Path(__file__).resolve().parents[1] / "configs" / "weighted_arcs.yaml"), None),
    # criterion 12's one job: E once on its one layout, then E*
    (parse_config(CONFIG_REGULARIZATION), 2),
], ids=["weighted-arcs", "regularization"])
def test_each_job_classifies_a_set_once_per_layout(classified_layouts, cfg, job_calls):
    # the regularize functional weighs E, and takes its default delta, on the job's rules
    for L in cfg.L_list:
        classified_layouts.clear()
        _job(cfg, config_hash(cfg), L, range(len(cfg.functionals)))
        counts = Counter((id(E), layout) for E, layout in classified_layouts)
        assert max(counts.values()) == 1, counts
    assert job_calls in (None, len(classified_layouts))


@pytest.mark.parametrize("path", ["configs/dense_net_sweep.yaml", "configs/fixed_cap_decay.yaml",
                                  "configs/weighted_arcs.yaml", "perfbench/weighted_sphere.yaml"])
def test_shipped_jobs_classify_only_recorded_layouts(classified_layouts, path):
    # a rule without a recorded layout is classified point by point, several times slower
    # than by ring runs, so no shipped sweep may hand one to inside
    cfg = load_config(Path(__file__).resolve().parents[1] / path)
    _job(cfg, config_hash(cfg), cfg.L_list[0], range(len(cfg.functionals)))
    assert classified_layouts and all(layout is not None for _, layout in classified_layouts)


def _sweep(config, L, functionals, path):
    text = config.split("functionals:")[0] + "functionals: [" + ", ".join(functionals) + "]\n"
    cfg = parse_config(text.replace("L_list: [8, 16, 32]", f"L_list: [{L}]"))
    return run_experiment(cfg, path)[2]


def test_dense_net_job_classifies_its_rule_once(classified, tmp_path):
    # eigen, density and harmonic share one 126 x 252 layout at L=8
    rows = _sweep(CONFIG_DENSE_NET, 8, ["eigen", "density", "harmonic"], tmp_path / "a")
    assert classified == [126 * 252] == [31_752]
    classified.clear()
    flipped = _sweep(CONFIG_DENSE_NET, 8, ["harmonic", "density", "eigen"], tmp_path / "b")
    assert classified == [31_752]
    # the first to ask for the layout differs, the rows do not
    assert [(r.L, r.functional, r.value, r.witness) for r in flipped] == [
        (r.L, r.functional, r.value, r.witness) for r in rows]


def test_fixed_cap_job_classifies_each_layout(classified, tmp_path):
    _sweep(CONFIG_FIXED_CAP, 8, ["eigen", "harmonic"], tmp_path)
    E = sn.cap_set(sn.north_pole(2), math.pi / 3)
    sizes = [sn.Sampling().rule(E, 2, 16).n_nodes, sn.Sampling().rule(E, 2, window=1.0 / 8).n_nodes]
    assert sizes[0] != sizes[1]
    assert classified == sizes


def test_plain_arc_eigen_job_classifies_no_uniform_rule(classified_layouts):
    # on S^1 under the plain measure the Gram comes from Gauss-Legendre on the arcs,
    # so the job's masked 2L rule is handed over but its nodes are never classified
    cfg = parse_config("schema: 1\nd: 1\nL_list: [8]\nfamily: {kind: fixed, set: {kind: arcs, intervals: "
                       "[[-1.2, 1.2], [2.0, 3.4]]}}\nfunctionals: [{name: eigen}, {name: pnorm, p: 4.0, restarts: 2}]\n")
    eigen = _job(cfg, config_hash(cfg), 8, [0])[0]
    # the arc rule has no ring layout
    assert classified_layouts and all(layout is None for _, layout in classified_layouts)
    classified_layouts.clear()
    pnorm = _job(cfg, config_hash(cfg), 8, [1])[0]
    # only the adversary classifies the uniform rule
    assert {layout for _, layout in classified_layouts} == {sn.Sampling().rule(cfg.family.spec, 1, 16).layout}
    assert eigen.value == sn.lambda_min(cfg.family.spec, sn.Lebesgue(), 8, d=1).lambda_min
    assert math.isfinite(pnorm.value)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("exact_degree, oversample, max_spacing", [
    (0, 1.0, None), (5, 1.0, None), (6, 1.0, None), (7, 2.5, None), (4, 4.0, 0.6), (0, 1.0, 0.35), (9, 1.3, 0.5),
])
def test_rule_declares_its_layout_exactness(d, exact_degree, oversample, max_spacing):
    rule = sn.build_quadrature(d, exact_degree, oversample=oversample, max_spacing=max_spacing)
    assert rule.exact_degree >= exact_degree
    assert "oversample" not in rule.descriptor
    L = rule.exact_degree // 2
    B = sn.basis_matrix(sn.BasisSpec(d, L), rule.nodes)
    assert np.abs(B.T @ (rule.weights[:, None] * B) - np.eye(B.shape[1])).max() <= 1e-12
    # every basis function of the declared degree integrates exactly, and one
    # of the next degree does not: the declaration is the layout's own
    const = np.zeros(sn.basis_dim(sn.BasisSpec(d, rule.exact_degree)))
    const[0] = math.sqrt(sn.sphere_measure(d))
    assert np.abs(rule.weights @ sn.basis_matrix(sn.BasisSpec(d, rule.exact_degree), rule.nodes) - const).max() <= 1e-12
    past = rule.weights @ sn.basis_matrix(sn.BasisSpec(d, rule.exact_degree + 1), rule.nodes)
    assert np.abs(past[const.size:]).max() > 1e-6


def test_equal_layouts_are_equal_rules():
    # asked for degree 16 or for a spacing, the same layout declares one exactness
    E = sn.cap_set(sn.north_pole(2), 0.05)
    a, b = sn.Sampling().rule(E, 2, 16), sn.Sampling().rule(E, 2, window=1.0)
    assert a.descriptor == b.descriptor and a.exact_degree == b.exact_degree >= 16
    assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("d", [1, 2])
def test_inside_is_one_read_only_mask_per_set(d):
    rule = sn.build_quadrature(d, 6, max_spacing=0.2)
    E = sn.random_cap_union(d, 3, 0.6, 11)
    mask = rule.inside(E)
    np.testing.assert_array_equal(mask, sets.membership(E, rule.nodes))
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0] = not mask[0]
    assert rule.inside(E) is mask
    other = sn.Complement(E)
    np.testing.assert_array_equal(rule.inside(other), ~mask)
    assert rule.inside(E) is mask
