"""Measurable subsets of the sphere: cap unions, bands, arcs, complements,
seeded random families, and L-indexed set families.

All sets are closed (indicator = 1 on boundaries); complements are closures of
set differences, so boundaries of measure zero are double-counted, which no
integral sees.  Random kinds are fully determined by their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

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

    axis: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float))
        if not (0.0 <= self.lo < self.hi <= math.pi):
            raise ValueError("band bounds must satisfy 0 <= lo < hi <= pi")


@dataclass(frozen=True, eq=False)
class Arcs:
    """d=1 only: union of closed arcs, stored as (start, length) rows."""

    intervals: np.ndarray

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
    pass


@dataclass(frozen=True)
class EmptySet:
    pass


@dataclass(frozen=True, eq=False)
class Complement:
    """Closure of the complement of the inner set."""

    inner: "SetSpec"


SetSpec = Union[CapUnion, Band, Arcs, FullSphere, EmptySet, Complement]


def cap_set(center, radius: float) -> CapUnion:
    """A single closed cap."""
    return CapUnion(np.atleast_2d(np.asarray(center, dtype=float)), np.array([radius]))


def random_cap_union(d: int, count: int, radius: float, seed: int) -> CapUnion:
    """Seeded family of caps with area-uniform centers (deterministic per seed)."""
    if count < 1:
        raise ValueError("need at least one cap")
    rng = np.random.default_rng(seed)
    centers = random_points(d, count, rng)
    return CapUnion(centers, np.full(count, float(radius)))


def _caps_member(spec: CapUnion, pts: np.ndarray, strict: bool) -> np.ndarray:
    n, k = pts.shape[0], spec.centers.shape[0]
    out = np.zeros(n, dtype=bool)
    if k >= _TREE_MIN_CAPS:
        for r in np.unique(spec.radii):
            sel = spec.radii == r
            tree = cKDTree(spec.centers[sel])
            chord, _ = tree.query(pts, k=1)
            lim = 2.0 * math.sin(min(r, math.pi) / 2.0)
            out |= (chord < lim) if strict else (chord <= lim)
        return out
    cos_r = np.cos(spec.radii)
    for i0 in range(0, n, 8192):
        t = pts[i0 : i0 + 8192] @ spec.centers.T
        hit = (t > cos_r) if strict else (t >= cos_r)
        out[i0 : i0 + 8192] = hit.any(axis=1)
    return out


def membership(spec: SetSpec, points, strict: bool = False) -> np.ndarray:
    """Boolean membership of the given points (rows) in the set.

    ``strict`` selects the open interior; the complement of a closed set is
    the negation of the strict interior, so Complement flips the flag.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
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

def set_to_dict(spec: SetSpec) -> dict:
    if isinstance(spec, FullSphere):
        return {"kind": "full"}
    if isinstance(spec, EmptySet):
        return {"kind": "empty"}
    if isinstance(spec, CapUnion):
        return {
            "kind": "cap_union",
            "centers": [[float(x) for x in c] for c in spec.centers],
            "radii": [float(r) for r in spec.radii],
        }
    if isinstance(spec, Band):
        return {
            "kind": "band",
            "axis": [float(x) for x in spec.axis],
            "lo": float(spec.lo),
            "hi": float(spec.hi),
        }
    if isinstance(spec, Arcs):
        return {
            "kind": "arcs",
            "intervals": [[float(s), float(s + ln)] for s, ln in spec.intervals],
        }
    if isinstance(spec, Complement):
        return {"kind": "complement", "of": set_to_dict(spec.inner)}
    raise TypeError(f"unknown set spec {type(spec).__name__}")


def set_from_dict(data: dict) -> SetSpec:
    kind = data.get("kind")
    if kind == "full":
        return FullSphere()
    if kind == "empty":
        return EmptySet()
    if kind == "cap":
        return cap_set(data["center"], float(data["radius"]))
    if kind == "cap_union":
        return CapUnion(np.asarray(data["centers"], dtype=float), np.asarray(data["radii"], dtype=float))
    if kind == "band":
        return Band(np.asarray(data["axis"], dtype=float), float(data["lo"]), float(data["hi"]))
    if kind == "arcs":
        return Arcs(np.asarray(data["intervals"], dtype=float))
    if kind == "complement":
        return Complement(set_from_dict(data["of"]))
    if kind == "random_caps":
        return random_cap_union(int(data["d"]), int(data["count"]), float(data["radius"]), int(data["seed"]))
    raise ValueError(f"unknown set kind {kind!r}")


# -- L-indexed families --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FixedFamily:
    """The same set at every degree."""

    spec: SetSpec
    label: str = "fixed"


@dataclass(frozen=True)
class CapNetFamily:
    """Caps of radius r/L centered on a spacing tau/L lattice (both scale with L)."""

    cap_radius_over_L: float
    net_spacing_over_L: float
    label: str = "cap_net"

    def __post_init__(self):
        if self.cap_radius_over_L <= 0 or self.net_spacing_over_L <= 0:
            raise ValueError("cap radius and net spacing factors must be positive")


@dataclass(frozen=True)
class RandomCapsFamily:
    """Seeded random caps; the seed is mixed with L so draws differ per degree."""

    count: int
    seed: int
    radius_over_L: float | None = None
    radius: float | None = None
    label: str = "random_caps"

    def __post_init__(self):
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


def family_to_dict(family: SetFamily) -> dict:
    if isinstance(family, FixedFamily):
        return {"kind": "fixed", "set": set_to_dict(family.spec), "label": family.label}
    if isinstance(family, CapNetFamily):
        return {
            "kind": "cap_net",
            "cap_radius_over_L": family.cap_radius_over_L,
            "net_spacing_over_L": family.net_spacing_over_L,
            "label": family.label,
        }
    if isinstance(family, RandomCapsFamily):
        out = {"kind": "random_caps", "count": family.count, "seed": family.seed, "label": family.label}
        if family.radius is not None:
            out["radius"] = family.radius
        else:
            out["radius_over_L"] = family.radius_over_L
        return out
    raise TypeError(f"unknown family {type(family).__name__}")


def family_from_dict(data: dict) -> SetFamily:
    kind = data.get("kind")
    label = data.get("label", kind)
    if kind == "fixed":
        return FixedFamily(set_from_dict(data["set"]), label=label)
    if kind == "cap_net":
        return CapNetFamily(
            float(data["cap_radius_over_L"]), float(data["net_spacing_over_L"]), label=label
        )
    if kind == "random_caps":
        return RandomCapsFamily(
            count=int(data["count"]),
            seed=int(data["seed"]),
            radius_over_L=(float(data["radius_over_L"]) if "radius_over_L" in data else None),
            radius=(float(data["radius"]) if "radius" in data else None),
            label=label,
        )
    raise ValueError(f"unknown family kind {kind!r}")
