"""The L^p adversary's L-BFGS-B driver against ``scipy.optimize.minimize``.

``concentration._lbfgs`` runs the reverse-communication loop of SciPy's
L-BFGS-B over its private core ``scipy.optimize._lbfgsb.setulb``.  These tests
pin it to ``minimize(method="L-BFGS-B")`` bit for bit, so a SciPy release that
changes the core or its calling convention fails here instead of moving the
adversary's values."""

import importlib.machinery
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import spherenorms as sn
from spherenorms import concentration
from spherenorms.config import load_config
from spherenorms.measures import weight_values

ROOT = Path(__file__).resolve().parents[1]
WEIGHTED_ARCS = load_config(ROOT / "configs" / "weighted_arcs.yaml")
WEIGHTED_SPHERE = load_config(ROOT / "perfbench" / "weighted_sphere.yaml")
OPTIONS = {"maxiter": 2000, "gtol": 1e-12, "ftol": 1e-16}


def _job_inputs(cfg, L):
    """The set, basis spec and degree-2L rule a sweep job of ``cfg`` hands the adversary."""
    E = sn.realize_family(cfg.family, cfg.d, L)
    return E, sn.BasisSpec(cfg.d, L), cfg.sampling.rule(E, cfg.d, 2 * L)


def _objective(cfg, L, p=4.0):
    E, spec, rule = _job_inputs(cfg, L)
    basis = concentration._node_basis(spec, rule)
    a = rule.weights * weight_values(cfg.measure, rule.nodes)
    return spec, concentration._pnorm_objective(basis.forward, basis.adjoint, a, a * rule.inside(E), p)


@pytest.mark.parametrize("cfg, L, maxiter", [
    (WEIGHTED_ARCS, 8, 2000),
    (WEIGHTED_ARCS, 16, 2000),
    (WEIGHTED_SPHERE, 8, 2000),
    (WEIGHTED_ARCS, 16, 9),
], ids=["weighted-arcs-L8", "weighted-arcs-L16", "weighted-sphere-L8", "weighted-arcs-L16-maxiter9"])
def test_driver_follows_minimize_bit_for_bit(cfg, L, maxiter):
    spec, objective = _objective(cfg, L)
    rng = np.random.default_rng(L)
    for _ in range(2):
        c0 = rng.standard_normal(sn.basis_dim(spec))
        c0 /= np.linalg.norm(c0)
        ref = scipy.optimize.minimize(objective, c0, jac=True, method="L-BFGS-B",
                                      options={**OPTIONS, "maxiter": maxiter})
        x, f, nfev, nit = concentration._lbfgs(objective, c0, maxiter=maxiter)
        np.testing.assert_array_equal(x, ref.x)
        assert (f, nfev, nit) == (ref.fun, ref.nfev, ref.nit)
        # the stopped run ends on the iteration limit, the others converge well inside it
        assert (nit == maxiter) == (maxiter < 2000), (nit, ref.message)


def test_missing_core_file_is_an_import_error_naming_it(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing-suffix"])
    with pytest.raises(ImportError, match=r"optimize/_lbfgsb\.missing-suffix"):
        concentration._lbfgsb_core()


def test_missing_scipy_is_an_import_error(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb", raising=False)
    monkeypatch.setitem(sys.modules, "scipy", None)  # as if SciPy were not installed
    with pytest.raises(ImportError, match="scipy"):
        concentration._lbfgsb_core()


def _reference_worst_case_lp(E, mu, L, p, restarts, seed, rule, d):
    """``worst_case_lp``'s p != 2 search as it stood with ``minimize``, kept as the reference."""
    spec = sn.BasisSpec(d, L)
    N = sn.basis_dim(spec)
    rule = concentration._degree_rule(E, spec, rule)
    basis = concentration._node_basis(spec, rule)
    mask = rule.inside(E)
    a_full = rule.weights * weight_values(mu, rule.nodes)
    objective = concentration._pnorm_objective(basis.forward, basis.adjoint, a_full, a_full * mask, p)

    rng = np.random.default_rng(seed)
    anchor = concentration._thin_density_center(spec, rule, mask)
    starts = [sn.basis_matrix(spec, anchor[None, :])[0],
              concentration._zonal_peak_start(spec, rule, anchor, basis.adjoint)]
    starts = starts[:restarts] + [rng.standard_normal(N) for _ in range(restarts - 2)]

    best_val, best_c, finals, evals = math.inf, None, [], 0
    for c0 in starts:
        c0 = np.asarray(c0, dtype=float)
        c0 = c0 / np.linalg.norm(c0)
        res = scipy.optimize.minimize(
            objective,
            c0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 2000, "gtol": 1e-12, "ftol": 1e-16},
        )
        val = float(res.fun)
        finals.append(val)
        evals += res.nfev
        if val < best_val:
            best_val = val
            best_c = res.x / np.linalg.norm(res.x)
    return best_val, best_c, tuple(finals), evals


@pytest.mark.parametrize("cfg, L, seeds, restarts", [
    (WEIGHTED_ARCS, 16, (0, 1, 2, 3), 6),
    (WEIGHTED_SPHERE, 8, (0,), 4),
], ids=["weighted-arcs-L16", "weighted-sphere-L8"])
def test_worst_case_lp_matches_the_minimize_search(cfg, L, seeds, restarts):
    E, _, rule = _job_inputs(cfg, L)
    if cfg.d == 1:
        np.testing.assert_array_equal(E.intervals, sn.Arcs([[-1.2, 1.2], [2.0, 3.4]]).intervals)
    for seed in seeds:
        rep = sn.worst_case_lp(E, cfg.measure, L, p=4.0, restarts=restarts, seed=seed, rule=rule, d=cfg.d)
        value, witness, finals, evals = _reference_worst_case_lp(E, cfg.measure, L, 4.0, restarts, seed, rule, cfg.d)
        assert (rep.value, rep.restarts, rep.evals) == (value, finals, evals)
        np.testing.assert_array_equal(rep.witness, witness)
