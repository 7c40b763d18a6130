"""Quadrature rules on S^1 and S^2 with declared polynomial exactness.

d=1 rules are uniform grids on the circle (exact for trigonometric degree up
to n-1); d=2 rules are Gauss-Legendre in cos(theta) times a uniform grid in
phi (exact for total degree up to the declared bound).  ``arc_quadrature``
cuts the circle at a d=1 set's ends, places Gauss-Legendre nodes in angle
on each piece and keeps the nodes the set holds, so integrals over the set
itself of trigonometric polynomials up to the declared degree are exact to
rounding, with no mask left to apply.  ``cap_quadrature`` reuses
the arc rule (d=1) and the product rule's rings, squeezed into the cap (d=2).
``oversample`` and ``max_spacing`` densify rules beyond the exactness
requirement, which matters for discontinuous integrands (set indicators);
a product rule records the ring layout it built (``layout``, read-only nodes
and weights) and declares that layout's exactness, so equal layouts are equal
rules.  ``Sampling`` sizes every masked rule and every center grid of a sweep."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .geometry import frame_at, uniform_circle
from .sets import SetSpec, check_fields, cut_angles, membership, min_feature_scale

__all__ = ["QuadratureRule", "Sampling", "build_quadrature", "cap_quadrature", "cap_rules", "arc_quadrature",
           "ring_layout", "rule_dim", "DEFAULT_MAX_NODES", "SPACING_FACTOR"]

DEFAULT_MAX_NODES = 6_000_000
# default node spacing: the smallest set feature (or window scale) over this factor
SPACING_FACTOR = 2.5
_CAP_N_R = 48
_CAP_N_PHI = 96


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and positive weights on S^d integrating polynomials exactly up to exact_degree.

    ``layout`` is ``(n_rings, n_phi)`` on a product rule, set only by
    ``build_quadrature`` (``ring_layout``), and None on every other rule, copies
    included; ``descriptor`` is a report of how the rule was built."""

    d: int
    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int
    descriptor: dict = field(default_factory=dict)
    layout: tuple[int, int] | None = field(default=None, init=False)
    _masks: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def inside(self, E: SetSpec) -> np.ndarray:
        """E's read-only mask on the nodes, classified once per (rule, set), by ring runs on a
        product rule (``layout``) and point by point on any other; the memo holds E, so its id
        is not reused while it lives."""
        if id(E) not in self._masks:
            mask = membership(E, self.nodes, layout=self.layout)
            mask.flags.writeable = False
            self._masks[id(E)] = (E, mask)
        return self._masks[id(E)][1]


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per size and
    returned read-only (every caller shares the cached arrays).

    The nodes are numpy's ``leggauss``; the weights are 2 / ((1 - x^2) P_n'(x)^2)
    from the three-term recurrence and its derivative.  Against 40-digit
    weights their summed error is 3e-15 at n = 79 and 6e-15 at n = 300, where
    ``leggauss``'s own weights are off by 1.4e-14 and 6.8e-14."""
    x = np.polynomial.legendre.leggauss(n)[0]
    p0, p1, d0, d1 = np.ones_like(x), x, np.zeros_like(x), np.ones_like(x)
    for k in range(2, n + 1):
        p0, p1, d0, d1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k, d1, d0 + (2 * k - 1) * p1
    w = 2.0 / ((1.0 - x) * (1.0 + x) * d1 * d1)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _ring_rule(a: float, n_t: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the zone z >= a of S^2: Gauss-Legendre in z on
    [a, 1] times n_phi equispaced longitudes from phi = 0, in ring-major order
    (the layout ``build_quadrature`` records)."""
    x, wx = _gauss_legendre(n_t)
    t = 0.5 * (1.0 - a) * x + 0.5 * (1.0 + a)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    s = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    nodes = np.stack([np.outer(s, np.cos(phi)).ravel(), np.outer(s, np.sin(phi)).ravel(), np.repeat(t, n_phi)], axis=1)
    return nodes, np.repeat(0.5 * (1.0 - a) * wx * (2.0 * math.pi / n_phi), n_phi)


def _arc_rule(start: float, length: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n-point Gauss-Legendre in angle on the arc
    [start, start + length] of S^1."""
    x, wx = _gauss_legendre(n)
    theta = start + 0.5 * length * (x + 1.0)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1), 0.5 * length * wx


def build_quadrature(
    d: int,
    exact_degree: int,
    oversample: float = 1.0,
    max_spacing: float | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> QuadratureRule:
    """Product rule on S^d exact to ``exact_degree``, densified by ``oversample``
    and, if given, until the nominal node spacing is below ``max_spacing``.
    The rule records its ring layout (``ring_layout``), with its nodes and
    weights read-only so that the record holds, and declares the layout's
    exactness, which may pass ``exact_degree``: n - 1 on S^1 (one ring of n),
    min(2 n_t - 1, n_phi - 1) on S^2 (n_t rings of n_phi)."""
    if exact_degree < 0:
        raise ValueError("exactness degree must be nonnegative")
    if oversample < 1.0:
        raise ValueError("oversample factor must be >= 1")
    if d == 1:
        n = int(math.ceil((exact_degree + 1) * oversample))
        if max_spacing is not None:
            n = max(n, int(math.ceil(2.0 * math.pi / max_spacing)))
        n = max(n, 4)
        if n > max_nodes:
            raise ResourceLimitError(f"rule would need {n} nodes (cap {max_nodes})")
        n_t, n_phi = 1, n
        rule = QuadratureRule(1, uniform_circle(n), np.full(n, 2.0 * math.pi / n), n - 1, {"n": n})
    elif d == 2:
        n_t = int(math.ceil((exact_degree + 1) / 2.0 * oversample))
        n_phi = int(math.ceil((exact_degree + 1) * oversample))
        if max_spacing is not None:
            n_t = max(n_t, int(math.ceil(math.pi / max_spacing)))
            n_phi = max(n_phi, int(math.ceil(2.0 * math.pi / max_spacing)))
        if n_t * n_phi > max_nodes:
            raise ResourceLimitError(
                f"rule would need {n_t}x{n_phi}={n_t * n_phi} nodes (cap {max_nodes})"
            )
        nodes, weights = _ring_rule(-1.0, n_t, n_phi)
        rule = QuadratureRule(2, nodes, weights, min(2 * n_t - 1, n_phi - 1), {"n_t": n_t, "n_phi": n_phi})
    else:
        raise ValueError(f"unsupported sphere dimension d={d}")
    rule.nodes.flags.writeable = rule.weights.flags.writeable = False
    object.__setattr__(rule, "layout", (n_t, n_phi))
    return rule


def ring_layout(rule: QuadratureRule) -> tuple[int, int]:
    """``(n_rings, n_phi)`` of a product rule from ``build_quadrature``: rings
    of n_phi longitudes 2 pi k / n_phi in ring-major order, one ring on S^1
    and rings of fixed, increasing z on S^2, as the rule recorded when built.
    Any other rule is a ValueError."""
    if rule.layout is None:
        raise ValueError("need a product rule from build_quadrature (rings of equispaced longitudes from phi = 0)")
    return rule.layout


def cap_quadrature(d: int, center, radius: float) -> QuadratureRule:
    """Local rule supported on the cap B(center, radius), exact for smooth caps (see ``cap_rules``)."""
    return next(cap_rules(d, [center], [radius]))


def cap_rules(d: int, centers, radii):
    """The local rule on each cap B(u, r), u a row of ``centers`` and r of ``radii``, in turn: polar
    coordinates around u, weights summing to the exact cap measure, for localized masses (weight
    diagnostics, regularized measure) where a global rule would be wasteful.  On S^2 one pass builds the
    polar ring rule of each radius and the frame at each center once, and keeps neither past its end."""
    polar, frames = {}, {}
    for u, r in zip(np.atleast_2d(np.asarray(centers, dtype=float)), map(float, radii)):
        if not (0.0 < r <= math.pi):
            raise ValueError(f"cap radius must lie in (0, pi], got {r}")
        if d == 1:
            nodes, weights = _arc_rule(math.atan2(u[1], u[0]) - r, 2.0 * r, _CAP_N_R)
            yield QuadratureRule(1, nodes, weights, 0, {"cap": True, "n_r": _CAP_N_R})
            continue
        if d != 2:
            raise ValueError(f"unsupported sphere dimension d={d}")
        if r not in polar:
            polar[r] = _ring_rule(math.cos(r), _CAP_N_R, _CAP_N_PHI)
        if u.tobytes() not in frames:
            frames[u.tobytes()] = frame_at(u).T
        yield QuadratureRule(2, polar[r][0] @ frames[u.tobytes()], polar[r][1], 0,
                             {"cap": True, "n_r": _CAP_N_R, "n_phi": _CAP_N_PHI})


def arc_quadrature(E: SetSpec, exact_degree: int) -> QuadratureRule:
    """Rule on the d=1 set E: the circle cut at E's ``cut_angles`` (one piece if it has none),
    Gauss-Legendre in angle on each piece, and of those nodes the ones E holds, classified once
    (``QuadratureRule.inside``), so every node lies in E and E's mask on the rule is all true.

    On a piece of length l, cos(k theta) with k <= exact_degree is an entire
    function of the Gauss-Legendre variable with frequency k l / 2; n nodes
    with 2n - 1 >= 0.6 exact_degree l + 40 integrate it to rounding (its
    Chebyshev coefficients past 1.2 times the frequency decay geometrically).
    The descriptor counts the pieces E holds nodes of (``arcs``) and the nodes (``n``).
    """
    cuts = np.unique(np.mod(cut_angles(E), 2.0 * math.pi))
    ends = np.append(cuts, cuts[0] + 2.0 * math.pi) if cuts.size else np.array([0.0, 2.0 * math.pi])
    sizes = np.ceil((0.6 * exact_degree * np.diff(ends) + 41) / 2.0).astype(int)
    nodes, weights = (np.concatenate(column) for column in zip(*map(_arc_rule, ends[:-1], np.diff(ends), sizes)))
    keep = QuadratureRule(1, nodes, weights, exact_degree).inside(E)
    pieces = int(np.logical_or.reduceat(keep, np.cumsum(sizes) - sizes).sum())
    return QuadratureRule(1, nodes[keep], weights[keep], exact_degree, {"arcs": pieces, "n": int(keep.sum())})


@dataclass(frozen=True)
class Sampling:
    """How densely a sweep samples a set: the masked rule over it and the
    center grids, from the settings configs give under ``quadrature:`` and
    ``resolution:``."""

    oversample: float = 4.0
    spacing_factor: float = SPACING_FACTOR
    max_nodes: int = DEFAULT_MAX_NODES
    per_great_circle_factor: int = 6

    def __post_init__(self):
        at_least_one = (lambda x: x >= 1, "must be >= 1")
        check_fields(self, oversample=at_least_one, spacing_factor=(lambda x: x > 0, "must be positive"),
                     max_nodes=at_least_one, per_great_circle_factor=at_least_one)

    def rule(self, E: SetSpec, d: int, exact_degree: int = 0, window: float = math.inf) -> QuadratureRule:
        """Product rule on S^d exact to ``exact_degree``, node spacing at most
        min(E's smallest feature, ``window``) / ``spacing_factor``, densified
        by ``oversample`` only if ``exact_degree`` > 0."""
        spacing = min(min_feature_scale(E), window) / self.spacing_factor
        return build_quadrature(d, exact_degree, oversample=self.oversample if exact_degree > 0 else 1.0,
                                max_spacing=spacing, max_nodes=self.max_nodes)

    def per_great_circle(self, L: int, window: float | None = None) -> int:
        """Points per great circle of the center grid at degree L:
        ``per_great_circle_factor`` L, raised to ceil(2 pi / window) + 1 when a
        window is given, so that the grid spacing stays below the window."""
        n = self.per_great_circle_factor * L
        return n if window is None else max(n, math.ceil(2.0 * math.pi / window) + 1)


def rule_dim(d: int | None, rule: QuadratureRule | None) -> int:
    """The sphere dimension: ``d`` if given, else the rule's; both must agree."""
    if rule is None:
        if d is None:
            raise ValueError("give either a rule or the sphere dimension d")
    elif d not in (None, rule.d):
        raise ValueError(f"a rule on S^{rule.d} cannot serve a computation on S^{d}")
    return rule.d if d is None else d
