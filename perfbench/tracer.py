"""Span recorder for traced benchmark sweeps.

The recorder lives in the benchmark, not in the package: ``install`` swaps
each traced public function of ``spherenorms`` for a wrapper in every
``spherenorms`` module namespace that refers to it, so calls between modules
are seen as well as calls from the runner.  Each wrapper records a span
(layer, start, end, parent) and, where a layer does countable work, counts
read from the call's arguments, its report, or its child spans.

A layer's self time is the sum over its spans of the span's duration minus
the time its child spans cover; its total time sums only the outermost spans
of that layer, so a layer that calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    layer: str
    start: float
    parent: "Span | None"
    outermost: bool
    end: float = 0.0
    children: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one process, kept in memory in the order they end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, layer: str, fn, count=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            outermost = all(s.layer != layer for s in self._stack)
            span = Span(layer, time.perf_counter(), parent, outermost)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)
            if count is not None and outermost:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result, span)
            return result

        return traced

    def install(self, targets) -> None:
        """Replace each (module, function, layer, count) target by its traced wrapper."""
        for module_name, name, layer, count in targets:
            original = getattr(importlib.import_module(module_name), name)
            traced = self.wrap(layer, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "spherenorms":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def clear(self) -> None:
        self.spans = []

    def self_s(self, layer: str) -> float:
        return sum(s.duration - sum(c.duration for c in s.children) for s in self.spans if s.layer == layer)

    def total_s(self, layer: str) -> float:
        return sum(s.duration for s in self.spans if s.layer == layer and s.outermost)

    def count(self, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.spans)

    def records(self) -> list[dict]:
        """Spans as plain rows (index, parent index, layer, start, end, counts)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "id": i,
                "parent": None if s.parent is None else index[id(s.parent)],
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "counts": s.counts,
            }
            for i, s in enumerate(self.spans)
        ]


# -- what is traced, and how its work is counted ---------------------------------

def _rule_nodes(descriptor: dict) -> int:
    return int(descriptor["n"]) if "n" in descriptor else int(descriptor["n_t"]) * int(descriptor["n_phi"])


def _child_count(span: Span, layer: str, key: str) -> int:
    return sum(c.counts.get(key, 0) for c in span.children if c.layer == layer)


def _density(args, rep, span):
    return {"functionals.density_pairs": rep.resolution["n_centers"] * _rule_nodes(rep.resolution["rule"])}


def _harmonic(args, rep, span):
    n_centers = rep.resolution.get("n_centers", 0)
    return {"functionals.harmonic_pairs": n_centers * _child_count(span, "sets.membership", "inside")}


def _eigen(args, rep, span):
    from spherenorms.measures import Lebesgue

    if rep.diagnostics.get("method") != "pencil-qr-svd":
        return {"concentration.qr_rows": 0}
    full_rows = 0 if isinstance(args["mu"], Lebesgue) else rep.diagnostics["n_nodes"]
    return {"concentration.qr_rows": rep.diagnostics["n_masked"] + full_rows}


def _pnorm(args, rep, span):
    from spherenorms.special import dim_pi

    if args["p"] == 2.0:
        return {"concentration.pnorm_matrix_entries": 0}
    nodes = _child_count(span, "sets.membership", "sets.points")
    return {"concentration.pnorm_matrix_entries": nodes * dim_pi(args["d"], args["L"])}


def _supnorm(args, result, span):
    return {"concentration.supnorm_grid_points": len(args["grid"])}


def _membership(args, mask, span):
    return {"sets.points": int(mask.shape[0]), "inside": int(mask.sum())}


def _cap_mass(args, result, span):
    return {"measures.cap_mass_calls": 1}


def _quadrature(args, rule, span):
    return {"quadrature.nodes": rule.n_nodes}


def _basis(args, B, span):
    return {"basis.entries": int(B.size)}


def _centers(args, centers, span):
    return {"geometry.n_centers": int(centers.shape[0])}


TARGETS = [
    ("spherenorms.runner", "_job", "runner.job", None),
    ("spherenorms.config", "parse_config", "config.parse", None),
    ("spherenorms.functionals", "density_profile", "functionals.density", _density),
    ("spherenorms.functionals", "harmonic_infimum", "functionals.harmonic", _harmonic),
    ("spherenorms.functionals", "doubling_constant", "functionals.weights", None),
    ("spherenorms.functionals", "rhinfty_check", "functionals.weights", None),
    ("spherenorms.functionals", "ainfty_check", "functionals.weights", None),
    ("spherenorms.functionals", "regularize_set", "functionals.regularize", None),
    ("spherenorms.concentration", "lambda_min", "concentration.eigen", _eigen),
    ("spherenorms.concentration", "worst_case_lp", "concentration.pnorm", _pnorm),
    ("spherenorms.concentration", "sup_norm_ratios", "concentration.supnorm", _supnorm),
    ("spherenorms.measures", "cap_mass", "measures.cap_mass", _cap_mass),
    ("spherenorms.sets", "membership", "sets.membership", _membership),
    ("spherenorms.quadrature", "build_quadrature", "quadrature.build", _quadrature),
    ("spherenorms.quadrature", "cap_quadrature", "quadrature.build", _quadrature),
    ("spherenorms.basis", "basis_matrix", "basis.eval", _basis),
    ("spherenorms.geometry", "candidate_centers", "geometry.centers", _centers),
]

# per-layer metric -> how it is read from the tracer
SPAN_METRICS = {
    "functionals.density_self_s": ("self", "functionals.density"),
    "functionals.density_pairs": ("count", "functionals.density_pairs"),
    "functionals.harmonic_self_s": ("self", "functionals.harmonic"),
    "functionals.harmonic_pairs": ("count", "functionals.harmonic_pairs"),
    "concentration.eigen_self_s": ("self", "concentration.eigen"),
    "concentration.qr_rows": ("count", "concentration.qr_rows"),
    "concentration.pnorm_self_s": ("self", "concentration.pnorm"),
    "concentration.pnorm_matrix_entries": ("count", "concentration.pnorm_matrix_entries"),
    "concentration.supnorm_s": ("total", "concentration.supnorm"),
    "concentration.supnorm_grid_points": ("count", "concentration.supnorm_grid_points"),
    "functionals.weights_s": ("total", "functionals.weights"),
    "measures.cap_mass_s": ("total", "measures.cap_mass"),
    "measures.cap_mass_calls": ("count", "measures.cap_mass_calls"),
    "functionals.regularize_self_s": ("self", "functionals.regularize"),
    "sets.membership_s": ("total", "sets.membership"),
    "sets.points": ("count", "sets.points"),
    "quadrature.build_s": ("total", "quadrature.build"),
    "quadrature.nodes": ("count", "quadrature.nodes"),
    "basis.eval_s": ("total", "basis.eval"),
    "basis.entries": ("count", "basis.entries"),
    "geometry.centers_s": ("total", "geometry.centers"),
    "geometry.n_centers": ("count", "geometry.n_centers"),
    "config.parse_s": ("total", "config.parse"),
}


def span_metrics(tracer: Tracer) -> dict:
    """Every SPAN_METRICS value of one traced sweep."""
    read = {"self": tracer.self_s, "total": tracer.total_s, "count": tracer.count}
    return {name: read[how](key) for name, (how, key) in SPAN_METRICS.items()}
