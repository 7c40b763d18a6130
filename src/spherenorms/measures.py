"""Surface measure and weighted measures w(u) dsigma(u), plus set masses and
the scale-1/L regularized density."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Union, get_args

import numpy as np

from .geometry import apply_rotation, cap_measure, check_orthogonal, geodesic_distance
from .quadrature import QuadratureRule, cap_quadrature
from .sets import SetSpec, coerce_fields, spec_from_dict, spec_to_dict

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
        object.__setattr__(self, "pole", np.asarray(self.pole, dtype=float))
        coerce_fields(self, float, "exponent")


@dataclass(frozen=True, eq=False)
class BandWeight:
    """Piecewise-constant weight: ``inside`` on the band d(u, axis) in [lo, hi], ``outside`` off it."""

    kind: ClassVar[str] = "band_weight"
    axis: np.ndarray
    lo: float
    hi: float
    inside: float
    outside: float

    def __post_init__(self):
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float))
        coerce_fields(self, float, "lo", "hi", "inside", "outside")
        if self.inside < 0 or self.outside < 0:
            raise ValueError("weights must be nonnegative")
        if not (0.0 <= self.lo < self.hi <= math.pi):
            raise ValueError("band bounds must satisfy 0 <= lo < hi <= pi")


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
        if abs(np.linalg.norm(mu.pole) - 1.0) > 1e-12 or mu.pole.shape[0] != d + 1:
            raise ValueError("pole must be a unit vector on S^d")
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
        dist = geodesic_distance(pts, mu.axis)
        return np.where((dist >= mu.lo) & (dist <= mu.hi), mu.inside, mu.outside)
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
    if isinstance(mu, Lebesgue):
        return cap_measure(d, radius)
    rule = cap_quadrature(d, center, radius)
    return float(rule.weights @ weight_values(mu, rule.nodes))


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
