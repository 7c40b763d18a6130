"""Surface measure and weighted measures w(u) dsigma(u), plus set masses and
the scale-1/L regularized density."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Union, get_args

import numpy as np

from .geometry import apply_rotation, assert_unit, cap_measure, check_orthogonal, geodesic_distance
from .quadrature import QuadratureRule, cap_rules
from .sets import Band, SetSpec, check_fields, membership, spec_from_dict, spec_to_dict

__all__ = [
    "Lebesgue",
    "PowerDistanceWeight",
    "BandWeight",
    "ProductWeight",
    "MeasureSpec",
    "weight_values",
    "validate_measure",
    "rotate_measure",
    "set_measure",
    "cap_mass",
    "cap_masses",
    "regularized_measure",
    "measure_to_dict",
    "measure_from_dict",
]


@dataclass(frozen=True)
class Lebesgue:
    """Plain surface measure (weight identically 1)."""

    kind: ClassVar[str] = "lebesgue"


@dataclass(frozen=True, eq=False)
class PowerDistanceWeight:
    """w(u) = (d(u, pole)/pi)^a; integrable for a > -d."""

    kind: ClassVar[str] = "power_distance"
    exponent: float
    pole: np.ndarray

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "pole", assert_unit(self.pole, name="pole"))


@dataclass(frozen=True, eq=False)
class BandWeight:
    """Piecewise-constant weight: ``inside`` on ``Band(axis, lo, hi)``, ``outside`` off it."""

    kind: ClassVar[str] = "band_weight"
    axis: np.ndarray
    lo: float
    hi: float
    inside: float
    outside: float

    def __post_init__(self):
        nonnegative = (lambda w: w >= 0, "must be nonnegative")
        check_fields(self, inside=nonnegative, outside=nonnegative)
        object.__setattr__(self, "axis", Band(self.axis, self.lo, self.hi).axis)


@dataclass(frozen=True, eq=False)
class ProductWeight:
    kind: ClassVar[str] = "product"
    factors: tuple = field(metadata={"load": lambda factors: [measure_from_dict(f) for f in factors]})

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


MeasureSpec = Union[Lebesgue, PowerDistanceWeight, BandWeight, ProductWeight]


def validate_measure(mu: MeasureSpec, d: int) -> None:
    if isinstance(mu, PowerDistanceWeight):
        if mu.exponent <= -d:
            raise ValueError(f"power-distance exponent must exceed -{d} for integrability")
        if mu.pole.shape != (d + 1,):
            raise ValueError(f"pole must be a point of S^{d}")
    elif isinstance(mu, BandWeight) and mu.axis.shape != (d + 1,):
        raise ValueError(f"axis must be a point of S^{d}")
    elif isinstance(mu, ProductWeight):
        for f in mu.factors:
            validate_measure(f, d)


def weight_values(mu: MeasureSpec, points) -> np.ndarray:
    """Weight evaluated at the given points (rows); ones for Lebesgue."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(mu, Lebesgue):
        return np.ones(pts.shape[0])
    if isinstance(mu, PowerDistanceWeight):
        dist = geodesic_distance(pts, mu.pole)
        with np.errstate(divide="ignore"):
            vals = (dist / math.pi) ** mu.exponent
        if mu.exponent < 0:
            vals = np.where(dist == 0.0, np.inf, vals)
        return vals
    if isinstance(mu, BandWeight):
        return np.where(membership(Band(mu.axis, mu.lo, mu.hi), pts), mu.inside, mu.outside)
    if isinstance(mu, ProductWeight):
        out = np.ones(pts.shape[0])
        for f in mu.factors:
            out = out * weight_values(f, pts)
        return out
    raise TypeError(f"unknown measure spec {type(mu).__name__}")


def rotate_measure(mu: MeasureSpec, R) -> MeasureSpec:
    """Push the weight forward by the rotation R (rewrites poles/axes)."""
    R = check_orthogonal(R)
    if isinstance(mu, Lebesgue):
        return mu
    if isinstance(mu, PowerDistanceWeight):
        return PowerDistanceWeight(mu.exponent, apply_rotation(mu.pole, R))
    if isinstance(mu, BandWeight):
        return BandWeight(apply_rotation(mu.axis, R), mu.lo, mu.hi, mu.inside, mu.outside)
    if isinstance(mu, ProductWeight):
        return ProductWeight(tuple(rotate_measure(f, R) for f in mu.factors))
    raise TypeError(f"unknown measure spec {type(mu).__name__}")


def set_measure(E: SetSpec, mu: MeasureSpec, rule: QuadratureRule) -> float:
    """mu(E) as the rule's weighted sum over nodes inside E."""
    mask = rule.inside(E)
    if not mask.any():
        return 0.0
    w = rule.weights[mask] * weight_values(mu, rule.nodes[mask])
    return float(w.sum())


def cap_mass(mu: MeasureSpec, d: int, center, radius: float) -> float:
    """mu(B(center, radius)) via a local polar rule (exact cap geometry)."""
    return float(cap_masses(mu, d, [center], [radius])[0])


def cap_masses(mu: MeasureSpec, d: int, centers, radii) -> np.ndarray:
    """``cap_mass`` of each row u of ``centers`` with its r in ``radii``: each distinct (u, r) is summed once,
    on one ``cap_rules`` pass, which builds each polar rule and frame once."""
    if isinstance(mu, Lebesgue):
        return np.array([cap_measure(d, float(r)) for r in radii])
    caps, inverse = np.unique(np.column_stack([np.atleast_2d(centers), radii]), axis=0, return_inverse=True)
    return np.array([c.weights @ weight_values(mu, c.nodes) for c in cap_rules(d, caps[:, :-1], caps[:, -1])])[inverse]


def regularized_measure(mu: MeasureSpec, L: int, u, d: int) -> float:
    """Local average density mu(B(u, 1/L)) / sigma(B(u, 1/L))."""
    if L < 1:
        raise ValueError("degree must be >= 1")
    u = np.asarray(u, dtype=float)
    return cap_mass(mu, d, u, 1.0 / L) / cap_measure(d, 1.0 / L)


_MEASURE_KINDS = {cls.kind: cls for cls in get_args(MeasureSpec)}


def measure_to_dict(mu: MeasureSpec) -> dict:
    return spec_to_dict(mu)


def measure_from_dict(data: dict) -> MeasureSpec:
    return spec_from_dict(data, _MEASURE_KINDS, "measure")
