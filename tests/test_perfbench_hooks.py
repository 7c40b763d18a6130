"""The benchmark's span recorder (perfbench/tracer.py) wraps package functions
by module and name, and its count functions read call arguments by parameter
name.  These tests fail when a rename or a dropped parameter would break
traced benchmark runs (``perfbench/run.py --trace 1``)."""

import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import spherenorms as sn
from spherenorms.config import FUNCTIONALS

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while decorating
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


def _argument_keys(count) -> set:
    """Constant keys the count function reads from its first parameter (the bound arguments)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(count)))
    fn = tree.body[0]
    args_name = fn.args.args[0].arg
    return {
        node.slice.value
        for node in ast.walk(fn)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == args_name
        and isinstance(node.slice, ast.Constant)
    }


@pytest.mark.parametrize("module_name, name, layer, count", TARGETS, ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_traced_target_exists_with_read_parameters(module_name, name, layer, count):
    fn = getattr(importlib.import_module(module_name), name, None)
    assert callable(fn), f"{module_name}.{name} is traced but missing"
    if count is not None:
        params = inspect.signature(fn).parameters
        missing = _argument_keys(count) - set(params)
        assert not missing, f"{count.__name__} reads {sorted(missing)}, not parameters of {name}"


def test_count_functions_read_arguments():
    # the source scan must find the argument reads it is meant to guard
    keys = set().union(*(_argument_keys(c) for *_, c in TARGETS if c is not None))
    assert {"mu", "p", "d", "L", "grid"} <= keys


def test_registry_holds_no_traced_function():
    # entries must reach traced functions through module globals, which the
    # recorder rebinds; a function object stored in the table would escape it
    traced = [getattr(importlib.import_module(m), n) for m, n, *_ in TARGETS]
    for entry in FUNCTIONALS.values():
        held = [entry.compute, *(check for _, check, _ in entry.checks)]
        assert not any(h is t for h in held for t in traced)


def _small_calls():
    """One small real call per traced function that has a count function: a d=2 cap at L=4, under the
    power weight where the function takes a measure."""
    E, L = sn.cap_set(sn.north_pole(2), 1.0), 4
    mu = sn.PowerDistanceWeight(2.0, np.array([0.0, 0.0, 1.0]))
    grid = sn.fibonacci_lattice(200)
    return {
        "density_profile": ((E, mu, L, 2.0 / L, 2.0 / L), {"d": 2}),
        "harmonic_infimum": ((E, L), {"d": 2}),
        "lambda_min": ((E, mu, L), {"d": 2}),
        "worst_case_lp": ((E, mu, L, 4.0), {"restarts": 1, "d": 2}),
        "sup_norm_ratios": ((lambda x: x[:, 2] + 2.0, E, grid), {}),
        "cap_mass": ((mu, 2, sn.north_pole(2), 0.5), {}),
        "membership": ((E, grid), {}),
        "build_quadrature": ((2, 2 * L), {}),
        "cap_quadrature": ((2, sn.north_pole(2), 0.5), {}),
        "basis_matrix": ((sn.BasisSpec(2, L), grid), {}),
        "candidate_centers": ((2, 6 * L), {}),
    }


COUNTED = [t for t in TARGETS if t[3] is not None]


@pytest.mark.parametrize("module_name, name, layer, count", COUNTED, ids=[f"{t[0]}.{t[1]}" for t in COUNTED])
def test_count_function_reads_a_real_result(module_name, name, layer, count):
    # the count functions also read report fields (resolution["n_centers"], resolution["rule"],
    # diagnostics["method"], ...): run each on a real call, in a span whose one child membership
    # span saw one node inside, so that a dropped key fails here or reads as a zero count
    Span = sys.modules["perfbench_tracer"].Span
    fn = getattr(importlib.import_module(module_name), name)
    args, kwargs = _small_calls()[name]
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    span = Span(layer, 0.0, None, True)
    span.children.append(Span("sets.membership", 0.0, span, True, counts={"sets.points": 1, "inside": 1}))
    counts = count(bound.arguments, fn(*args, **kwargs), span)
    assert counts and all(isinstance(v, int) and v > 0 for v in counts.values()), counts
