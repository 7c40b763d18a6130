"""Cap-union membership on product rules by ring runs: against the all-caps
float64 test on random cap unions, against the k-d tree path on the rules a
dense-net job builds, and the SciPy modules a plain sweep or a plain S^2
lambda_min leaves unloaded."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spherenorms as sn
from spherenorms import quadrature, sets
from spherenorms.acceptance import CONFIG_DENSE_NET
from spherenorms.config import config_hash, parse_config
from spherenorms.quadrature import ring_layout
from spherenorms.runner import _job

ROOT = Path(__file__).resolve().parents[1]


def all_caps(E, nodes, strict):
    """The definition: u is in the union when ``cap_dots(c, u) >= cos r`` (``>``
    if strict) for some cap (c, r), every cap tested against every node."""
    above = np.greater if strict else np.greater_equal
    out = np.zeros(nodes.shape[0], dtype=bool)
    for c, r in zip(E.centers, E.radii):
        out |= above(sets.cap_dots(c, nodes.T), math.cos(r))
    return out


def sphere_point(d, polar, azimuth):
    if d == 1:
        return [math.cos(azimuth), math.sin(azimuth)]
    return [math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar)]


# polar angles and azimuths of the centers placed by hand: the poles, the phi = 0
# meridian and its neighbourhood, and anywhere
POLAR = st.one_of(st.sampled_from([0.0, math.pi, 0.5 * math.pi]), st.floats(0.0, math.pi))
AZIMUTH = st.one_of(st.sampled_from([0.0, 2.0 * math.pi - 1e-12, math.pi]), st.floats(0.0, 2.0 * math.pi))


def tied_radius(levels, radius):
    """A radius whose cosine is exactly one of ``levels``, the one nearest ``radius``
    that has such a radius, or ``radius`` if none has."""
    for level in levels[np.argsort(np.abs(np.arccos(levels) - radius))]:
        below, above = [math.acos(level)], [math.acos(level)]
        for _ in range(50):
            below.append(float(np.nextafter(below[-1], 0.0)))
            above.append(float(np.nextafter(above[-1], 4.0)))
        exact = [r for r in below + above if r > 0.0 and math.cos(r) == level]
        if exact:
            return exact[0]
    return radius


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    exact_degree=st.integers(0, 30),
    max_spacing=st.one_of(st.none(), st.floats(0.02, 1.0)),
    radii=st.lists(st.floats(1e-3, 0.5 * math.pi), min_size=1, max_size=3),
    placed=st.lists(st.tuples(POLAR, AZIMUTH), max_size=12),
    n_random=st.integers(0, 300),
    tie=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
# a center a subnormal off the pole: its ring's closed-form quotient overflows to the whole ring
@example(d=2, exact_degree=2, max_spacing=None, radii=[1.0], placed=[(2.225073858507e-311, 0.0)], n_random=0,
         tie=False, seed=0)
def test_ring_runs_equal_the_all_caps_test(d, exact_degree, max_spacing, radii, placed, n_random, tie, seed):
    # with ``tie``, a cap about the axis (e_z, or e_x on S^1) meets a ring (a node)
    # exactly on its boundary: its first radius has the ring's z (the node's x) as
    # its cosine, so the closed set holds the nodes there and the strict one does not
    rule = sn.build_quadrature(d, exact_degree, max_spacing=max_spacing)
    rng = np.random.default_rng(seed)
    if tie:
        placed = [(0.0, 0.0) if d == 2 else (0.5 * math.pi, 0.0)] + placed
        radii = [tied_radius(np.unique(rule.nodes[:, -1 if d == 2 else 0]), radii[0])] + radii[1:]
    centers = [sphere_point(d, *pa) for pa in placed] + sn.random_points(d, n_random, rng).tolist()
    if not centers:
        centers = [sphere_point(d, 0.0, 0.0)]
    centers = np.array(centers[:300])
    classes = rng.integers(0, len(radii), centers.shape[0])
    classes[0] = 0
    E = sn.CapUnion(centers / np.linalg.norm(centers, axis=1, keepdims=True), np.array(radii)[classes])
    layout = ring_layout(rule)
    closed = sets.membership(E, rule.nodes, layout=layout)
    np.testing.assert_array_equal(closed, all_caps(E, rule.nodes, strict=False))
    np.testing.assert_array_equal(sets.membership(sn.Complement(E), rule.nodes, layout=layout),
                                  ~all_caps(E, rule.nodes, strict=True))


@pytest.mark.parametrize("L", [8, 12, 16])
def test_dense_net_rules_classify_alike_by_ring_runs_and_tree(monkeypatch, L):
    # every rule a dense-net job builds: the masks the job used (ring runs)
    # are those the k-d tree path gives, for E and its complement
    cfg = parse_config(CONFIG_DENSE_NET.replace("L_list: [8, 16, 32]", f"L_list: [{L}]"))
    built, real_build = [], quadrature.build_quadrature

    def recorded(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(quadrature, "build_quadrature", recorded)
    _job(cfg, config_hash(cfg), L, range(len(cfg.functionals)))
    E = sets.realize_family(cfg.family, cfg.d, L)
    assert E.centers.shape[0] >= sets._TREE_MIN_CAPS and built
    for rule in built:
        tree = sets.membership(E, rule.nodes)
        np.testing.assert_array_equal(sets.membership(E, rule.nodes, layout=ring_layout(rule)), tree)
        np.testing.assert_array_equal(sets.membership(sn.Complement(E), rule.nodes, layout=ring_layout(rule)),
                                      sets.membership(sn.Complement(E), rule.nodes))
        for spec, mask in rule._masks.values():  # the masks the job's functionals read
            np.testing.assert_array_equal(mask, sets.membership(spec, rule.nodes))


def run_fresh(script):
    """stdout of ``script`` run in a new interpreter with the package on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_plain_sweeps_never_import_scipy(tmp_path):
    # SciPy is loaded where it is called (L-BFGS, weighted triangular solves,
    # covering nets, k-d trees on arbitrary points): importing the package,
    # describing, parsing every shipped config and one-degree dense-net and
    # fixed-cap sweeps load none of it
    out = run_fresh(f"""
import contextlib, io, sys
from pathlib import Path
import spherenorms.runner
from spherenorms.cli import main
from spherenorms.config import load_config
from spherenorms.runner import run_experiment
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["describe"]) == 0
for path in sorted(Path("configs").glob("*.yaml")):
    load_config(path)
for name in ("dense_net_sweep", "fixed_cap_decay"):
    text = Path("configs", name + ".yaml").read_text().replace("L_list: [8, 16, 32]", "L_list: [4]")
    (Path({str(tmp_path)!r}) / (name + ".yaml")).write_text(text)
    rows = run_experiment(load_config(Path({str(tmp_path)!r}) / (name + ".yaml")), Path({str(tmp_path)!r}) / name)[2]
    assert {{row.L for row in rows}} == {{4}}, rows
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
""")
    assert out[-1] == "[]"


def test_plain_sphere_lambda_min_never_imports_scipy():
    # both SVD paths: one per (order, cos|sin) group on a polar cap, one dense SVD
    # on a dense net, and the whole and partial rings merged in one factor
    out = run_fresh("""
import sys
import numpy as np
import spherenorms as sn
pole = np.array([0.0, 0.0, 1.0])
for E in (sn.cap_set(pole, 2.5), sn.CapUnion(np.stack([pole, [0.8, 0.0, 0.6]]), np.array([1.0, 0.3])),
          sn.realize_family(sn.CapNetFamily(0.5, 2.0), 2, 8)):
    print(sn.lambda_min(E, sn.Lebesgue(), 8, d=2).diagnostics["svd_blocks"])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
""")
    assert out == ["17", "1", "1", "[]"]


def test_weighted_arcs_pnorm_loads_scipy_where_it_runs(tmp_path):
    out = run_fresh(f"""
import math, sys
from pathlib import Path
from spherenorms.config import parse_config
from spherenorms.runner import run_experiment
text = Path("configs/weighted_arcs.yaml").read_text().replace("L_list: [8, 16, 32]", "L_list: [8]")
rows = run_experiment(parse_config(text), Path({str(tmp_path)!r}))[2]
(pnorm,) = [row for row in rows if row.functional == "pnorm"]
assert math.isfinite(pnorm.value) and pnorm.witness.startswith("restarts=6"), pnorm
print("scipy.optimize" in sys.modules)
""")
    assert out[-1] == "True"
