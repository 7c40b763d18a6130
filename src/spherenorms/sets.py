"""Measurable subsets of the sphere: cap unions, bands, arcs, complements,
seeded random families, and L-indexed set families.

All sets are closed (indicator = 1 on boundaries); complements are closures of
set differences, so boundaries of measure zero are double-counted, which no
integral sees.  Random kinds are fully determined by their seed.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import ClassVar, Union, get_args

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    angle_of,
    apply_rotation,
    check_orthogonal,
    fibonacci_lattice,
    random_points,
    uniform_circle,
)

__all__ = [
    "CapUnion",
    "Band",
    "Arcs",
    "FullSphere",
    "EmptySet",
    "Complement",
    "SetSpec",
    "cap_set",
    "random_cap_union",
    "membership",
    "cap_dots",
    "indicator",
    "arc_list",
    "min_feature_scale",
    "rotate",
    "set_to_dict",
    "set_from_dict",
    "FixedFamily",
    "CapNetFamily",
    "RandomCapsFamily",
    "SetFamily",
    "realize_family",
    "family_to_dict",
    "family_from_dict",
]

_TWO_PI = 2.0 * math.pi
# dense membership below these sizes, KD-tree above
_TREE_MIN_CAPS = 64


@dataclass(frozen=True, eq=False)
class CapUnion:
    """Union of closed geodesic caps; centers (k, d+1), radii (k,)."""

    kind: ClassVar[str] = "cap_union"
    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centers", np.atleast_2d(np.asarray(self.centers, dtype=float)))
        object.__setattr__(self, "radii", np.atleast_1d(np.asarray(self.radii, dtype=float)))
        if self.radii.shape[0] != self.centers.shape[0]:
            raise ValueError("one radius per cap center required")
        if np.any(self.radii <= 0) or np.any(self.radii > math.pi):
            raise ValueError("cap radii must lie in (0, pi]")


@dataclass(frozen=True, eq=False)
class Band:
    """Points whose distance to ``axis`` lies in [lo, hi]."""

    kind: ClassVar[str] = "band"
    axis: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float))
        coerce_fields(self, float, "lo", "hi")
        if not (0.0 <= self.lo < self.hi <= math.pi):
            raise ValueError("band bounds must satisfy 0 <= lo < hi <= pi")


@dataclass(frozen=True, eq=False)
class Arcs:
    """d=1 only: union of closed arcs, stored as (start, length) rows, written as [start, end]."""

    kind: ClassVar[str] = "arcs"
    intervals: np.ndarray = field(metadata={"dump": lambda iv: np.stack([iv[:, 0], iv[:, 0] + iv[:, 1]], 1).tolist()})

    def __post_init__(self):
        iv = np.atleast_2d(np.asarray(self.intervals, dtype=float))
        if iv.size == 0:
            raise ValueError("empty arc list; use EmptySet")
        starts = np.mod(iv[:, 0], _TWO_PI)
        lengths = iv[:, 1] - iv[:, 0]
        lengths = np.where(lengths <= 0, lengths + _TWO_PI, lengths)
        if np.any(lengths <= 0):
            raise ValueError("arcs must have positive length")
        lengths = np.minimum(lengths, _TWO_PI)
        object.__setattr__(self, "intervals", np.stack([starts, lengths], axis=1))


@dataclass(frozen=True)
class FullSphere:
    kind: ClassVar[str] = "full"


@dataclass(frozen=True)
class EmptySet:
    kind: ClassVar[str] = "empty"


@dataclass(frozen=True, eq=False)
class Complement:
    """Closure of the complement of the inner set."""

    kind: ClassVar[str] = "complement"
    inner: "SetSpec" = field(metadata={"key": "of", "load": lambda data: set_from_dict(data)})


SetSpec = Union[CapUnion, Band, Arcs, FullSphere, EmptySet, Complement]


def cap_set(center, radius: float) -> CapUnion:
    """A single closed cap."""
    return CapUnion(np.atleast_2d(np.asarray(center, dtype=float)), np.array([radius]))


def random_cap_union(d: int, count: int, radius: float, seed: int) -> CapUnion:
    """Seeded family of caps with area-uniform centers (deterministic per seed)."""
    d, count, seed = int(d), int(count), int(seed)
    if count < 1:
        raise ValueError("need at least one cap")
    rng = np.random.default_rng(seed)
    centers = random_points(d, count, rng)
    return CapUnion(centers, np.full(count, float(radius)))


def cap_dots(c, u):
    """``c[0] * u[0] + c[1] * u[1] (+ c[2] * u[2])`` in that order, for coordinate-major
    arrays: membership and the window kernel put u in the cap (c, r) when this is >= cos r."""
    dots = c[0] * u[0]
    for j in range(1, len(c)):
        dots += c[j] * u[j]
    return dots


def _caps_member(spec: CapUnion, pts: np.ndarray, strict: bool) -> np.ndarray:
    """Point u is in the cap (c, r) when ``cap_dots(c, u) >= cos r``.  From ``_TREE_MIN_CAPS``
    caps on, a k-d tree picks each point's nearest center per radius and that test decides,
    so adding caps far from a point does not change its answer."""
    above = np.greater if strict else np.greater_equal
    n, k = pts.shape[0], spec.centers.shape[0]
    cos_r = np.array([math.cos(r) for r in spec.radii])
    out = np.zeros(n, dtype=bool)
    if k >= _TREE_MIN_CAPS:
        for lim in np.unique(cos_r):
            centers = spec.centers[cos_r == lim]
            out |= above(cap_dots(centers[cKDTree(centers).query(pts, k=1)[1]].T, pts.T), lim)
        return out
    for i0 in range(0, n, 8192):
        out[i0 : i0 + 8192] = above(cap_dots(spec.centers.T, pts[i0 : i0 + 8192].T[:, :, None]), cos_r).any(axis=1)
    return out


def membership(spec: SetSpec, points, strict: bool = False) -> np.ndarray:
    """Boolean membership of the given points (rows) in the set.

    ``strict`` selects the open interior; the complement of a closed set is
    the negation of the strict interior, so Complement flips the flag.  Cap
    unions and arcs refuse points of another sphere (ValueError).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coords = spec.centers.shape[1] if isinstance(spec, CapUnion) else 2 if isinstance(spec, Arcs) else pts.shape[1]
    if pts.shape[1] != coords:
        raise ValueError(f"the set's points have {coords} coordinates, these {pts.shape[1]}")
    if isinstance(spec, FullSphere):
        return np.ones(pts.shape[0], dtype=bool)
    if isinstance(spec, EmptySet):
        return np.zeros(pts.shape[0], dtype=bool)
    if isinstance(spec, Complement):
        return ~membership(spec.inner, pts, strict=not strict)
    if isinstance(spec, CapUnion):
        return _caps_member(spec, pts, strict)
    if isinstance(spec, Band):
        t = pts @ spec.axis
        c_hi, c_lo = math.cos(spec.hi), math.cos(spec.lo)
        if strict:
            return (t > c_hi) & (t < c_lo)
        return (t >= c_hi) & (t <= c_lo)
    if isinstance(spec, Arcs):
        theta = angle_of(pts)
        out = np.zeros(pts.shape[0], dtype=bool)
        for s, ln in spec.intervals:
            rel = np.mod(theta - s, _TWO_PI)
            out |= (rel < ln) if strict else (rel <= ln)
            if not strict:
                out |= rel >= _TWO_PI - 1e-15  # closed start point, mod rounding
        return out
    raise TypeError(f"unknown set spec {type(spec).__name__}")


def indicator(spec: SetSpec, u) -> int:
    """Pointwise 0/1 membership (boundary counts as inside)."""
    return int(membership(spec, np.atleast_2d(np.asarray(u, dtype=float)))[0])


def _merge_arcs(pairs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge closed (start, length) arcs on the circle into disjoint sorted arcs."""
    if not pairs:
        return []
    cleaned = [(s % _TWO_PI, min(ln, _TWO_PI)) for s, ln in pairs]
    if any(ln >= _TWO_PI - 1e-14 for _, ln in cleaned):
        return [(0.0, _TWO_PI)]
    ivs = sorted((s, s + ln) for s, ln in cleaned)
    merged: list[list[float]] = []
    for s, e in ivs:
        if merged and s <= merged[-1][1] + 1e-14:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    # wrap-around: last interval may spill past 2 pi onto the first ones
    while len(merged) > 1 and merged[-1][1] >= _TWO_PI + merged[0][0] - 1e-14:
        first = merged.pop(0)
        merged[-1][1] = max(merged[-1][1], first[1] + _TWO_PI)
    if merged and merged[-1][1] - merged[-1][0] >= _TWO_PI - 1e-14:
        return [(0.0, _TWO_PI)]
    return [(s % _TWO_PI, e - s) for s, e in merged]


# gaps narrower than this between arcs are dropped from a complement: Gauss-
# Legendre nodes on such a sliver would sit within rounding of its ends, where
# membership cannot tell them from the neighbouring arcs' interiors
_MIN_GAP = 1e-10


def _complement_arcs(pairs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not pairs:
        return [(0.0, _TWO_PI)]
    if len(pairs) == 1 and pairs[0][1] >= _TWO_PI - 1e-14:
        return []
    ordered = sorted(pairs)
    out = []
    for (s1, l1), (s2, _) in zip(ordered, ordered[1:] + [(ordered[0][0] + _TWO_PI, 0.0)]):
        gap_start = s1 + l1
        gap_len = s2 - gap_start
        if gap_len > _MIN_GAP:
            out.append((gap_start % _TWO_PI, gap_len))
    return out


def arc_list(spec: SetSpec) -> list[tuple[float, float]]:
    """Reduce a d=1 set spec to disjoint sorted (start, length) arcs."""
    if isinstance(spec, FullSphere):
        return [(0.0, _TWO_PI)]
    if isinstance(spec, EmptySet):
        return []
    if isinstance(spec, Arcs):
        return _merge_arcs([tuple(row) for row in spec.intervals])
    if isinstance(spec, CapUnion):
        if spec.centers.shape[1] != 2:
            raise ValueError("arc reduction requires S^1 caps")
        pairs = []
        for c, r in zip(spec.centers, spec.radii):
            a = math.atan2(c[1], c[0])
            pairs.append((a - r, 2.0 * r))
        return _merge_arcs(pairs)
    if isinstance(spec, Band):
        if spec.axis.shape[0] != 2:
            raise ValueError("arc reduction requires S^1 bands")
        a = math.atan2(spec.axis[1], spec.axis[0])
        pairs = [(a + spec.lo, spec.hi - spec.lo), (a - spec.hi, spec.hi - spec.lo)]
        return _merge_arcs(pairs)
    if isinstance(spec, Complement):
        return _complement_arcs(arc_list(spec.inner))
    raise TypeError(f"unknown set spec {type(spec).__name__}")


def min_feature_scale(spec: SetSpec) -> float:
    """Smallest angular feature of the set, used to size quadrature rules."""
    if isinstance(spec, (FullSphere, EmptySet)):
        return math.pi
    if isinstance(spec, CapUnion):
        return float(spec.radii.min())
    if isinstance(spec, Band):
        return (spec.hi - spec.lo) / 2.0
    if isinstance(spec, Arcs):
        return float(spec.intervals[:, 1].min()) / 2.0
    if isinstance(spec, Complement):
        return min_feature_scale(spec.inner)
    raise TypeError(f"unknown set spec {type(spec).__name__}")


def rotate(obj, R):
    """Image of a point array or a set spec under the orthogonal matrix R."""
    R = check_orthogonal(R)
    if isinstance(obj, np.ndarray):
        return apply_rotation(obj, R)
    if isinstance(obj, (FullSphere, EmptySet)):
        return obj
    if isinstance(obj, Complement):
        return Complement(rotate(obj.inner, R))
    if isinstance(obj, CapUnion):
        return CapUnion(apply_rotation(obj.centers, R), obj.radii.copy())
    if isinstance(obj, Band):
        return Band(apply_rotation(obj.axis, R), obj.lo, obj.hi)
    if isinstance(obj, Arcs):
        det = np.linalg.det(R)
        alpha = math.atan2(R[1, 0], R[0, 0])
        rows = []
        for s, ln in obj.intervals:
            if det > 0:
                rows.append([s + alpha, s + alpha + ln])
            else:
                rows.append([alpha - s - ln, alpha - s])
        return Arcs(np.asarray(rows))
    raise TypeError(f"cannot rotate {type(obj).__name__}")


# -- serialization ------------------------------------------------------------
#
# A spec's YAML form is its class's ``kind`` plus one key per field that is not
# None, named as the field unless its metadata gives ``key``; metadata ``dump``
# and ``load`` convert the value.  Nested specs and tuples of them recurse.

def coerce_fields(spec, cast, *names) -> None:
    """Cast the named fields of a frozen spec in place (YAML's 1 where 1.0 is meant); None stays."""
    for name in names:
        if getattr(spec, name) is not None:
            object.__setattr__(spec, name, cast(getattr(spec, name)))


def _dump(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    return spec_to_dict(value) if is_dataclass(value) else value


def spec_to_dict(spec) -> dict:
    out = {"kind": spec.kind}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if value is not None:
            out[f.metadata.get("key", f.name)] = f.metadata.get("dump", _dump)(value)
    return out


def spec_from_dict(data, kinds: dict, what: str):
    """``kinds[data["kind"]]`` (a spec class or constructor) called with the other keys; unknown keys are refused."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in kinds:
        raise ValueError(f"a {what} must be a mapping whose kind is one of {', '.join(kinds)}, not {data!r}")
    make = kinds[kind]
    params = fields(make) if is_dataclass(make) else inspect.signature(make).parameters.values()
    schema = {getattr(p, "metadata", {}).get("key", p.name): p for p in params}
    args = {}
    for key, value in data.items():
        if key != "kind":
            if key not in schema:
                raise ValueError(f"{what} kind {kind!r} has no key {key!r}")
            load = getattr(schema[key], "metadata", {}).get("load")
            args[schema[key].name] = value if load is None else load(value)
    return make(**args)


_SET_KINDS = {cls.kind: cls for cls in get_args(SetSpec)}
_SET_KINDS.update(cap=cap_set, random_caps=random_cap_union)  # input-only: read as a cap union


def set_to_dict(spec: SetSpec) -> dict:
    return spec_to_dict(spec)


def set_from_dict(data: dict) -> SetSpec:
    return spec_from_dict(data, _SET_KINDS, "set")


# -- L-indexed families --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FixedFamily:
    """The same set at every degree."""

    kind: ClassVar[str] = "fixed"
    spec: SetSpec = field(metadata={"key": "set", "load": set_from_dict})
    label: str = "fixed"


@dataclass(frozen=True)
class CapNetFamily:
    """Caps of radius r/L centered on a spacing tau/L lattice (both scale with L)."""

    kind: ClassVar[str] = "cap_net"
    cap_radius_over_L: float
    net_spacing_over_L: float
    label: str = "cap_net"

    def __post_init__(self):
        coerce_fields(self, float, "cap_radius_over_L", "net_spacing_over_L")
        if self.cap_radius_over_L <= 0 or self.net_spacing_over_L <= 0:
            raise ValueError("cap radius and net spacing factors must be positive")


@dataclass(frozen=True)
class RandomCapsFamily:
    """Seeded random caps; the seed is mixed with L so draws differ per degree."""

    kind: ClassVar[str] = "random_caps"
    count: int
    seed: int
    radius_over_L: float | None = None
    radius: float | None = None
    label: str = "random_caps"

    def __post_init__(self):
        coerce_fields(self, int, "count", "seed")
        coerce_fields(self, float, "radius_over_L", "radius")
        if (self.radius is None) == (self.radius_over_L is None):
            raise ValueError("give exactly one of radius / radius_over_L")


SetFamily = Union[FixedFamily, CapNetFamily, RandomCapsFamily]


def realize_family(family: SetFamily, d: int, L: int) -> SetSpec:
    """Concrete set of the family at degree L."""
    if L < 1:
        raise ValueError("degree must be >= 1")
    if isinstance(family, FixedFamily):
        return family.spec
    if isinstance(family, CapNetFamily):
        radius = family.cap_radius_over_L / L
        h = family.net_spacing_over_L / L
        if d == 1:
            centers = uniform_circle(max(3, int(math.ceil(_TWO_PI / h))))
        elif d == 2:
            centers = fibonacci_lattice(max(4, int(math.ceil(4.0 * math.pi / (h * h)))))
        else:
            raise ValueError(f"unsupported sphere dimension d={d}")
        return CapUnion(centers, np.full(centers.shape[0], radius))
    if isinstance(family, RandomCapsFamily):
        radius = family.radius if family.radius is not None else family.radius_over_L / L
        rng = np.random.default_rng([family.seed, L])
        centers = random_points(d, family.count, rng)
        return CapUnion(centers, np.full(family.count, radius))
    raise TypeError(f"unknown family {type(family).__name__}")


_FAMILY_KINDS = {cls.kind: cls for cls in get_args(SetFamily)}


def family_to_dict(family: SetFamily) -> dict:
    return spec_to_dict(family)


def family_from_dict(data: dict) -> SetFamily:
    return spec_from_dict(data, _FAMILY_KINDS, "family")
