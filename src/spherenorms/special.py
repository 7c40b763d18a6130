"""Jacobi polynomials, harmonic-space dimensions, the degree-L reproducing
kernel in Christoffel-Darboux form, and the oscillatory large-degree estimate.

Conventions: ``jacobi_eval(n, alpha, beta, x)`` follows the classical
normalization P_n^(a,b)(1) = C(n+a, n).  The sphere dimension d enters only
through the index pair (d/2, d/2-1) of the kernel and through
lambda = (d-2)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WindowError

__all__ = [
    "jacobi_eval",
    "dim_harmonic",
    "dim_pi",
    "KernelSpec",
    "kernel_spec",
    "reproducing_kernel",
    "SzegoApprox",
    "szego_estimate",
    "szego_envelope",
    "PeakPolynomial",
    "peak_polynomial",
    "sphere_lambda",
    "sphere_measure",
]

# slack admitted when validating |x| <= 1 (dot products of unit vectors round)
_X_SLACK = 1e-12


def sphere_lambda(d: int) -> float:
    """The index lambda = (d-2)/2 attached to the sphere S^d."""
    return (d - 2) / 2.0


def _validate_params(n: int, alpha: float, beta: float) -> None:
    if n < 0 or n != int(n):
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    if alpha <= -1 or beta <= -1:
        raise ValueError(f"indices must exceed -1, got alpha={alpha}, beta={beta}")


def jacobi_eval(n: int, alpha: float, beta: float, x):
    """Evaluate the Jacobi polynomial P_n^(alpha,beta) at x in [-1, 1].

    Forward three-term recurrence in the degree; stable for the index ranges
    used here (alpha, beta > -1).  Accepts a scalar or an ndarray and returns
    a matching shape.
    """
    _validate_params(n, alpha, beta)
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if np.any(np.abs(x_arr) > 1.0 + _X_SLACK):
        raise ValueError("argument outside [-1, 1]")
    x_arr = np.clip(x_arr, -1.0, 1.0)

    p_prev = np.ones_like(x_arr)
    if n == 0:
        return p_prev[0] if scalar else p_prev
    ab = alpha + beta
    p_cur = (alpha + 1.0) + (ab + 2.0) * (x_arr - 1.0) / 2.0
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + ab) * (2.0 * k + ab - 2.0)
        c2 = (2.0 * k + ab - 1.0) * (alpha * alpha - beta * beta)
        c3 = (2.0 * k + ab - 1.0) * (2.0 * k + ab) * (2.0 * k + ab - 2.0)
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + ab)
        p_next = ((c2 + c3 * x_arr) * p_cur - c4 * p_prev) / c1
        p_prev, p_cur = p_cur, p_next
    return p_cur[0] if scalar else p_cur


def dim_harmonic(d: int, ell: int) -> int:
    """Dimension of the space of degree-ell spherical harmonics on S^d."""
    if d not in (1, 2):
        raise ValueError(f"unsupported sphere dimension d={d}")
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    if d == 1:
        return 1 if ell == 0 else 2
    return 2 * ell + 1


def dim_pi(d: int, L: int) -> int:
    """Dimension of the space of spherical polynomials of degree <= L on S^d."""
    if d not in (1, 2):
        raise ValueError(f"unsupported sphere dimension d={d}")
    if L < 0:
        raise ValueError("degree must be nonnegative")
    if d == 1:
        return 2 * L + 1
    return (L + 1) ** 2


def sphere_measure(d: int) -> float:
    """Total surface measure of S^d (circumference / area)."""
    if d == 1:
        return 2.0 * math.pi
    if d == 2:
        return 4.0 * math.pi
    raise ValueError(f"unsupported sphere dimension d={d}")


@dataclass(frozen=True)
class KernelSpec:
    """Degree-L projection kernel on S^d: K_L(u,v) = kappa/sigma(S^d) * P_L^(d/2,d/2-1)(<u,v>).

    ``kappa`` is pinned so that K_L(u,u) * sigma(S^d) = dim Pi_L exactly, which
    makes the kernel reproducing rather than merely asymptotically scaled.
    """

    d: int
    L: int
    kappa: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kernel normalization must be positive")


def kernel_spec(d: int, L: int) -> KernelSpec:
    """Build the kernel spec for (d, L), pinning kappa via the trace identity."""
    p_one = float(jacobi_eval(L, d / 2.0, d / 2.0 - 1.0, 1.0))
    return KernelSpec(d=d, L=L, kappa=dim_pi(d, L) / p_one)


def reproducing_kernel(spec: KernelSpec, t):
    """Kernel value K_L(u,v) as a function of t = <u, v> in [-1, 1]."""
    vals = jacobi_eval(spec.L, spec.d / 2.0, spec.d / 2.0 - 1.0, t)
    return spec.kappa / sphere_measure(spec.d) * vals


@dataclass(frozen=True)
class SzegoApprox:
    """Oscillatory approximation of P_L^(1+lambda,lambda)(cos theta) away from the poles."""

    L: int
    lam: float
    theta: float
    main_term: float
    envelope: float


def szego_envelope(lam: float, theta: float) -> float:
    """Amplitude factor k(theta) = pi^{-1/2} (sin t/2)^{-lam-3/2} (cos t/2)^{-lam-1/2}."""
    half = theta / 2.0
    return (
        math.pi ** -0.5
        * math.sin(half) ** (-lam - 1.5)
        * math.cos(half) ** (-lam - 0.5)
    )


def szego_estimate(L: int, lam: float, theta: float) -> SzegoApprox:
    """Leading oscillatory term for P_L^(1+lam,lam)(cos theta).

    main_term = k(theta)/sqrt(L) * cos((L+lam+1) theta - (2 lam+3) pi/4); the
    neglected correction is of size envelope/(L sin theta).  Valid only for
    4/L <= theta <= pi - 4/L; outside that window a WindowError is raised.
    """
    if L < 1:
        raise ValueError("degree must be >= 1")
    lo, hi = 4.0 / L, math.pi - 4.0 / L
    if not (lo <= theta <= hi):
        raise WindowError(
            f"theta={theta:.6g} outside validity window [{lo:.6g}, {hi:.6g}] for L={L}"
        )
    env = szego_envelope(lam, theta) / math.sqrt(L)
    phase = (L + lam + 1.0) * theta - (2.0 * lam + 3.0) * math.pi / 4.0
    return SzegoApprox(L=L, lam=lam, theta=theta, main_term=env * math.cos(phase), envelope=env)


@dataclass(frozen=True)
class PeakPolynomial:
    """Power of a zonal Jacobi polynomial, peaked at ``pole``.

    Evaluates v -> (P_L^(1+lam,lam)(<v, pole>))^ell, a polynomial of degree
    ell*L whose absolute maximum on the sphere sits at the pole.
    """

    d: int
    L: int
    ell: int
    pole: np.ndarray

    @property
    def degree(self) -> int:
        return self.ell * self.L

    @property
    def peak_value(self) -> float:
        return float(jacobi_eval(self.L, 1.0 + sphere_lambda(self.d), sphere_lambda(self.d), 1.0)) ** self.ell

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        t = np.clip(pts @ self.pole, -1.0, 1.0)
        lam = sphere_lambda(self.d)
        vals = jacobi_eval(self.L, 1.0 + lam, lam, t) ** self.ell
        return vals if np.asarray(points).ndim > 1 else vals[0]


def peak_polynomial(d: int, L: int, ell: int, pole) -> PeakPolynomial:
    """Construct the peaked test polynomial of degree ell*L at ``pole``."""
    if ell < 1:
        raise ValueError("power must be >= 1")
    if L < 1:
        raise ValueError("base degree must be >= 1")
    pole = np.asarray(pole, dtype=float)
    if abs(np.linalg.norm(pole) - 1.0) > 1e-12:
        raise ValueError("pole must be a unit vector")
    return PeakPolynomial(d=d, L=L, ell=ell, pole=pole)
