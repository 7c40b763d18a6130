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

import pytest

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
