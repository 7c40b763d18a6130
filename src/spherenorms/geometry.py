"""Points, geodesic distance, cap measures, rotations, and center grids on S^1 and S^2."""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import NetConstructionError
from .special import sphere_measure

__all__ = [
    "north_pole",
    "south_pole",
    "normalize",
    "assert_unit",
    "geodesic_distance",
    "cap_measure",
    "random_points",
    "check_orthogonal",
    "apply_rotation",
    "random_rotation",
    "rotation_taking",
    "frame_at",
    "fibonacci_lattice",
    "uniform_circle",
    "candidate_centers",
    "covering_net",
    "angle_of",
]

_GOLDEN = math.pi * (1.0 + math.sqrt(5.0))
# densifications covering_net tries before giving up
_NET_TRIES = 4
# largest number of net caps allowed to cover one probe point
_OVERLAP_CAP = 24


def north_pole(d: int) -> np.ndarray:
    """Reference point: +z for d=2, angle zero (1,0) for d=1."""
    if d == 1:
        return np.array([1.0, 0.0])
    if d == 2:
        return np.array([0.0, 0.0, 1.0])
    raise ValueError(f"unsupported sphere dimension d={d}")


def south_pole(d: int) -> np.ndarray:
    return -north_pole(d)


def normalize(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / n


def assert_unit(v, tol: float = 1e-12) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > tol):
        raise ValueError("point is not on the unit sphere")
    return v


def geodesic_distance(u, v):
    """Geodesic distance arccos(<u,v>), with the inner product clamped to [-1, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    t = np.clip(np.sum(u * v, axis=-1), -1.0, 1.0)
    return np.arccos(t)


def cap_measure(d: int, radius: float) -> float:
    """Surface measure of any cap of the given angular radius.

    d=1: arc length 2r.  d=2: 2 pi (1 - cos r).
    """
    if not (0.0 < radius <= math.pi):
        raise ValueError(f"cap radius must lie in (0, pi], got {radius}")
    if d == 1:
        return 2.0 * radius
    if d == 2:
        return 2.0 * math.pi * (1.0 - math.cos(radius))
    raise ValueError(f"unsupported sphere dimension d={d}")


def random_points(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Area-uniform sample of n points on S^d (rejection-free)."""
    if d == 1:
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if d == 2:
        z = rng.uniform(-1.0, 1.0, size=n)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        s = np.sqrt(1.0 - z * z)
        return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    raise ValueError(f"unsupported sphere dimension d={d}")


def check_orthogonal(R, tol: float = 1e-10) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    k = R.shape[0]
    if R.shape != (k, k) or np.abs(R.T @ R - np.eye(k)).max() > tol:
        raise ValueError("matrix is not orthogonal")
    return R


def apply_rotation(points, R) -> np.ndarray:
    """Image of points (rows) under the orthogonal matrix R."""
    R = check_orthogonal(R)
    return np.asarray(points, dtype=float) @ R.T


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation in SO(d+1) via QR of a Gaussian matrix."""
    A = rng.standard_normal((d + 1, d + 1))
    Q, r = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(r))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def rotation_taking(u, v) -> np.ndarray:
    """A rotation mapping unit vector u to unit vector v (identity on their orthocomplement)."""
    u = assert_unit(u)
    v = assert_unit(v)
    k = u.size
    c = float(u @ v)
    if c > 1.0 - 1e-14:
        return np.eye(k)
    if c < -1.0 + 1e-14:
        # antipodal: rotation by pi in a plane containing u
        w = np.zeros(k)
        w[int(np.argmin(np.abs(u)))] = 1.0
        w = normalize(w - (w @ u) * u)
        return np.eye(k) - 2.0 * np.outer(u, u) - 2.0 * np.outer(w, w)
    w = normalize(v - c * u)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    R = np.eye(k) + s * (np.outer(w, u) - np.outer(u, w)) + (c - 1.0) * (np.outer(u, u) + np.outer(w, w))
    return R


def frame_at(u) -> np.ndarray:
    """Rotation taking the canonical north pole of the matching dimension to u."""
    u = assert_unit(u)
    return rotation_taking(north_pole(u.size - 1), u)


def fibonacci_lattice(n: int) -> np.ndarray:
    """Near-uniform n-point lattice on S^2 (golden-angle spiral)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = _GOLDEN * i
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def uniform_circle(n: int) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def candidate_centers(d: int, per_great_circle: int) -> np.ndarray:
    """Grid of candidate centers for infima over u in S^d, with
    ``per_great_circle`` points per great circle (``Sampling.per_great_circle``
    sizes a sweep's grids); for d=2 a Fibonacci lattice with the matching
    areal density is used.
    """
    if per_great_circle < 3:
        raise ValueError("need at least 3 points per great circle")
    if d == 1:
        return uniform_circle(per_great_circle)
    if d == 2:
        h = 2.0 * math.pi / per_great_circle
        n = int(math.ceil(4.0 * math.pi / (h * h)))
        return fibonacci_lattice(n)
    raise ValueError(f"unsupported sphere dimension d={d}")


def covering_net(d: int, spacing: float) -> np.ndarray:
    """Discrete net whose caps of radius ``spacing`` cover S^d with bounded overlap.

    d=1 uses a uniform grid (covering radius exactly half the grid step; the
    step is below ``spacing``, so no point lies in more than 5 caps).  d=2
    uses a Fibonacci lattice sized for the target covering radius, verified
    against a finer probe lattice, densified up to ``_NET_TRIES`` times; no
    probe point may lie in more than ``_OVERLAP_CAP`` caps.
    """
    if spacing <= 0 or spacing > math.pi:
        raise NetConstructionError(f"net spacing {spacing} out of range")
    if d == 1:
        n = int(math.ceil(2.0 * math.pi / spacing)) + 1
        return uniform_circle(n)
    if d != 2:
        raise ValueError(f"unsupported sphere dimension d={d}")
    n = max(16, int(math.ceil(4.0 * math.pi / (0.7 * spacing) ** 2)))
    for _ in range(_NET_TRIES):
        net = fibonacci_lattice(n)
        probe = fibonacci_lattice(4 * n + 1)
        tree = cKDTree(net)
        chord, _ = tree.query(probe, k=1)
        # covering radius in geodesic terms
        cover = 2.0 * np.arcsin(np.clip(chord.max() / 2.0, 0.0, 1.0))
        if cover <= spacing:
            overlap = int(tree.query_ball_point(probe, r=2.0 * math.sin(spacing / 2.0), return_length=True).max())
            if overlap > _OVERLAP_CAP:
                raise NetConstructionError(f"cover overlap {overlap} exceeds the bound {_OVERLAP_CAP}")
            return net
        n = int(math.ceil(1.5 * n))
    raise NetConstructionError(
        f"could not reach covering radius {spacing} within {_NET_TRIES} densifications"
    )


def angle_of(points) -> np.ndarray:
    """Angles in [0, 2 pi) of points on S^1."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
