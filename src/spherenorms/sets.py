"""Measurable subsets of the sphere: cap unions, bands, arcs, complements,
seeded random families, and L-indexed set families.

All sets are closed (indicator = 1 on boundaries); complements are closures of
set differences, so boundaries of measure zero are double-counted, which no
integral sees.  A cap union holds u when the float64 test
``geometry.cap_dots(c, u) >= cos r`` passes it for some cap (c, r); each cap
is tested only on the points of its polar band, by ring runs on a product
rule's nodes and point by point elsewhere (``_cap_counts``).  Random kinds are
fully determined by their seed.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass
from typing import ClassVar, Union, get_args

import numpy as np

from .geometry import (
    angle_of,
    apply_rotation,
    assert_unit,
    cap_dots,
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
    "validate_set",
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
# (center, ring) pairs, or counted (center, node) pairs, per block of a ring scan; bounds its temporaries
_PAIR_BLOCK = 1 << 20
# polar-angle slack of a cap's ring band: a node the float64 test passes lies
# within radius + sqrt(2 * 1e-15) of the center, far inside radius + 1e-6
_BAND_SLACK = 1e-6


@dataclass(frozen=True, eq=False)
class CapUnion:
    """Union of closed geodesic caps; centers (k, d+1), radii (k,)."""

    kind: ClassVar[str] = "cap_union"
    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "centers", assert_unit(np.atleast_2d(self.centers), name="centers"))
        object.__setattr__(self, "radii", np.atleast_1d(self.radii))
        if self.radii.shape[0] != self.centers.shape[0]:
            raise ValueError("one radius per cap center required")
        if not np.all((self.radii > 0) & (self.radii <= math.pi)):
            raise ValueError("cap radii must lie in (0, pi]")


@dataclass(frozen=True, eq=False)
class Band:
    """Points whose distance to ``axis`` lies in [lo, hi]."""

    kind: ClassVar[str] = "band"
    axis: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "axis", assert_unit(self.axis, name="axis"))
        if not (0.0 <= self.lo < self.hi <= math.pi):
            raise ValueError("band bounds must satisfy 0 <= lo < hi <= pi")


@dataclass(frozen=True, eq=False)
class Arcs:
    """d=1 only: union of closed arcs, stored as (start, length) rows, written as [start, end]."""

    kind: ClassVar[str] = "arcs"
    intervals: np.ndarray = field(metadata={"dump": lambda iv: np.stack([iv[:, 0], iv[:, 0] + iv[:, 1]], 1).tolist()})

    def __post_init__(self):
        check_fields(self)
        iv = np.atleast_2d(self.intervals)
        if iv.size == 0:
            raise ValueError("empty arc list; use EmptySet")
        starts = np.mod(iv[:, 0], _TWO_PI)
        lengths = iv[:, 1] - iv[:, 0]
        lengths = np.where(lengths <= 0, lengths + _TWO_PI, lengths)
        if not np.all(lengths > 0):
            raise ValueError("intervals must have positive length")
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
    return CapUnion(center, np.array([checked("radius", radius)]))


def random_cap_union(d: int, count: int, radius: float, seed: int) -> CapUnion:
    """Seeded family of caps with area-uniform centers (deterministic per seed)."""
    count = checked("count", count, int, lambda n: n >= 1, "must be >= 1")
    rng = np.random.default_rng(checked("seed", seed, int))
    centers = random_points(checked("d", d, int), count, rng)
    return CapUnion(centers, np.full(count, checked("radius", radius)))


def _center_blocks(counts: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive center ranges whose counts sum to at most ``_PAIR_BLOCK``, or one center whose count is larger."""
    csum = np.cumsum(counts)
    bounds = [0]
    while bounds[-1] < counts.shape[0]:
        done = csum[bounds[-1] - 1] if bounds[-1] else 0
        bounds.append(max(bounds[-1] + 1, int(np.searchsorted(csum, done + _PAIR_BLOCK, side="right"))))
    return list(zip(bounds[:-1], bounds[1:]))


def _polar(coords):
    """Polar angles about e_z (pi/2 on S^1) of coordinate-major points, negated so that they ascend with z."""
    return -np.arctan2(np.hypot(coords[0], coords[1]), coords[2] if coords.shape[0] == 3 else 0.0)


def _cos_bound(radius):
    """cos r, the bound of the test ``cap_dots(c, u) >= cos r`` for the cap (c, r), or -inf from
    r = pi on: such a cap holds every point, though ``cap_dots(c, -c)`` may round below -1."""
    return -math.inf if radius >= math.pi else math.cos(radius)


def _ring_pairs(centers, coords, n_phi, radius):
    """The (center, ring) pairs whose ring lies within polar angle ``radius`` (at most pi, plus
    ``_BAND_SLACK``) of the center, a block of centers at a time (``_center_blocks``): yields
    ``(c0, c1, owner, rings)``, each pair's center index from c0 and its ring index, grouped by
    center.  ``coords`` holds the nodes, one row per coordinate, in rings of ``n_phi`` whose
    polar angles do not decrease: a product rule's, or points in polar order, one per ring."""
    reach = min(radius, math.pi) + _BAND_SLACK
    polar, c_polar = _polar(coords[:, ::n_phi]), _polar(centers.T)
    lowest = np.searchsorted(polar, c_polar - reach)
    band = np.searchsorted(polar, c_polar + reach, side="right") - lowest
    for c0, c1 in _center_blocks(band):
        owner = np.repeat(np.arange(c1 - c0), band[c0:c1])
        pair_end = np.cumsum(band[c0:c1])
        yield c0, c1, owner, lowest[c0:c1][owner] + np.arange(owner.size) - (pair_end - band[c0:c1])[owner]


def _ring_runs(c, rings, coords, n_phi, cos_w, strict=False):
    """``(first, count)`` of the run of longitudes each (center, ring) pair's
    cap holds: ``c`` holds the pairs' centers, ``rings`` their ring indices
    and ``coords`` the rule's nodes, one row per coordinate.  The run within
    arccos((cos_w - c_z t) / (rho_c s)) of the center's longitude is a first
    guess; then each end takes in its outer neighbour while the float64 test
    ``cap_dots(c, u) >= cos_w`` (``>`` if ``strict``) passes it and gives up
    its own node while the test fails it, until neither end moves."""
    d = coords.shape[0] - 1
    base = rings * n_phi
    num = cos_w - c[:, 2] * coords[2, base] if d == 2 else np.full(rings.size, cos_w)
    den = np.hypot(c[:, 0], c[:, 1]) * np.hypot(coords[0, base], coords[1, base])
    # a center on the axis sees its whole ring at one dot product, and one a subnormal off it overflows to that
    with np.errstate(over="ignore"):
        q = np.divide(num, den, out=np.where(num > 0.0, np.inf, -np.inf), where=den > 0.0)
    step = 2.0 * math.pi / n_phi
    mid = np.arctan2(c[:, 1], c[:, 0]) / step
    half = np.arccos(np.clip(q, -1.0, 1.0)) / step
    first = np.ceil(mid - half).astype(np.int64)
    count = np.minimum(np.floor(mid + half).astype(np.int64) - first + 1, n_phi)
    c = c.T.copy()
    above = np.greater if strict else np.greater_equal

    def passes(live, k):
        return above(cap_dots(np.take(c, live, axis=1), np.take(coords, base[live] + k % n_phi, axis=1)), cos_w)

    live = np.arange(rings.size)
    while live.size:
        grow = (count[live] < n_phi) & passes(live, first[live] - 1)
        first[live] -= grow
        count[live] += grow
        shrink = (count[live] > 0) & ~passes(live, first[live])
        first[live] += shrink
        count[live] -= shrink
        grow_end = (count[live] < n_phi) & passes(live, first[live] + count[live])
        count[live] += grow_end
        shrink_end = (count[live] > 0) & ~passes(live, first[live] + count[live] - 1)
        count[live] -= shrink_end
        live = live[grow | shrink | grow_end | shrink_end]
    return first, count


def _cap_counts(spec: CapUnion, pts: np.ndarray, strict: bool = False, layout=None) -> np.ndarray:
    """How many of the union's caps hold each point.  The cap (c, r) holds u when
    ``cap_dots(c, u) >= cos r`` (``>`` if ``strict``; ``_cos_bound``), tested only on the rings of
    the cap's polar band (``_ring_pairs``).  On a product rule's nodes (``layout``) the cap holds
    one run of longitudes per ring (``_ring_runs``); other points are put in polar order, each a
    ring of one node, and the test decides each pair directly.  The runs are marked in one
    difference array."""
    order, n_phi = (np.argsort(_polar(pts.T), kind="stable"), 1) if layout is None else (None, layout[1])
    coords = np.ascontiguousarray((pts if order is None else pts[order]).T)
    above = np.greater if strict else np.greater_equal
    marks = np.zeros(pts.shape[0] + 1, dtype=np.int64)
    for radius in np.unique(spec.radii):
        centers, cos_w = spec.centers[spec.radii == radius], _cos_bound(radius)
        for c0, c1, owner, rings in _ring_pairs(centers, coords, n_phi, radius):
            if order is None:
                first, count = _ring_runs(centers[c0:c1][owner], rings, coords, n_phi, cos_w, strict)
            else:
                dots = cap_dots(np.take(centers[c0:c1].T, owner, axis=1), np.take(coords, rings, axis=1))
                rings = rings[above(dots, cos_w)]
                first, count = np.zeros_like(rings), np.ones_like(rings)
            start, base = rings * n_phi + first % n_phi, rings * n_phi
            wrap = np.maximum(start + count - base - n_phi, 0)  # the run's part past phi = 2 pi
            marks += np.bincount(np.concatenate([start, base]), minlength=marks.size)
            marks -= np.bincount(np.concatenate([start + count - wrap, base + wrap]), minlength=marks.size)
    counts = np.cumsum(marks[:-1])
    if order is not None:  # back to the points' own order
        counts[order] = counts.copy()
    return counts


def membership(spec: SetSpec, points, strict: bool = False, layout: tuple[int, int] | None = None) -> np.ndarray:
    """Boolean membership of the given points (rows) in the set.

    ``strict`` selects the open interior; the complement of a closed set is
    the negation of the strict interior, so Complement flips the flag.  Cap
    unions and arcs refuse points of another sphere (ValueError).  Given the
    ``layout`` (``QuadratureRule.layout``) of the product rule whose nodes
    the points are, cap unions are classified by ring runs, and other points
    one at a time in their caps' polar bands (``_cap_counts``).
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
        return ~membership(spec.inner, pts, not strict, layout)
    if isinstance(spec, CapUnion):
        return _cap_counts(spec, pts, strict, layout) > 0
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


def validate_set(spec: SetSpec, d: int) -> None:
    """ValueError unless the set's points, through complements, are points of S^d."""
    if isinstance(spec, Complement):
        return validate_set(spec.inner, d)
    coords = spec.centers.shape[1] if isinstance(spec, CapUnion) else spec.axis.shape[0] if isinstance(spec, Band) \
        else 2 if isinstance(spec, Arcs) else d + 1
    if coords != d + 1:
        raise ValueError(f"a {spec.kind} set whose points have {coords} coordinates is not on S^{d}")


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

def checked(name: str, value, kind: type = float, ok=None, msg: str = "must be finite"):
    """``value`` as ``kind`` (int or float), or ValueError naming ``name``: booleans, non-numbers,
    non-finite values and non-integers where an integer is meant are refused (an int is read as
    a float where a float is meant); then ``ok``, if given, must hold, or the error says ``msg``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if kind is int else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    if not (math.isfinite(value) and (ok is None or ok(value))):
        raise ValueError(f"{name} {msg}")
    return kind(value)


# annotations of the spec fields ``check_fields`` reads, and the type each is read as
_SCALARS = {"int": int, "float": float, "float | None": float}


def check_fields(spec, **rules) -> None:
    """Put every ``int`` or ``float`` field of a frozen spec through ``checked`` in place,
    with ``rules[name] = (ok, msg)`` where given (a ``float | None`` field may stay None);
    an ``np.ndarray`` field is stored as a float array, each entry put through ``checked``
    (named ``name[i, j]``) unless it is an integer or float array, which must be finite."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type == "np.ndarray":
            if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
                for index, x in np.ndenumerate(np.asarray(value, dtype=object)):
                    checked(f"{f.name}{list(index)}", x)
            elif not np.isfinite(value).all():
                raise ValueError(f"{f.name} must be finite")
            object.__setattr__(spec, f.name, np.asarray(value, dtype=float))
        elif f.type in _SCALARS and not (value is None and f.type.endswith("None")):
            object.__setattr__(spec, f.name, checked(f.name, value, _SCALARS[f.type], *rules.get(f.name, ())))



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
        positive = (lambda x: x > 0, "must be positive")
        check_fields(self, cap_radius_over_L=positive, net_spacing_over_L=positive)


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
        check_fields(self, count=(lambda n: n >= 1, "must be >= 1"), radius_over_L=(lambda r: r > 0, "must be > 0"),
                     radius=(lambda r: 0 < r <= math.pi, "must lie in (0, pi]"))
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
