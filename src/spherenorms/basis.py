"""Orthonormal bases of the degree-L polynomial space on S^1 and S^2.

d=2 uses real spherical harmonics built from fully normalized associated
Legendre functions (positive convention, no Condon-Shortley sign); d=1 uses
the trigonometric system {1/sqrt(2 pi), cos(k t)/sqrt(pi), sin(k t)/sqrt(pi)}.
Ordering is (degree, order) lexicographic: for each degree the m = 0 function
comes first, then cos/sin pairs for m = 1..degree.  On a d=2 product rule,
``ring_factors`` applies the node x basis matrix and its transpose, and
builds its weighted half-factor, through per-ring Legendre values and
per-longitude trig values, without forming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import ring_layout
from .special import dim_pi

__all__ = ["BasisSpec", "RingFactors", "basis_dim", "basis_matrix", "basis_eval", "normalized_assoc_legendre",
           "ring_factors"]

# buffered lifted ring rows, in multiples of dim Pi_L, that trigger a QR merge in ``half_factor``
_MERGE_ROWS = 3


@dataclass(frozen=True)
class BasisSpec:
    d: int
    L: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"unsupported sphere dimension d={self.d}")
        if self.L < 0:
            raise ValueError("degree must be nonnegative")


def basis_dim(spec: BasisSpec) -> int:
    return dim_pi(spec.d, spec.L)


def _legendre_orders(L: int, x: np.ndarray):
    """Per order m = 0..L, yield (m, [N_lm P_l^m(x) for l = m..L]) by the
    three-term recurrence in l, started from the diagonal P_m^m."""
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    pmm = np.full(x.shape, math.sqrt(1.0 / (4.0 * math.pi)))
    for m in range(0, L + 1):
        if m > 0:
            pmm = math.sqrt((2 * m + 1) / (2.0 * m)) * s * pmm
        col = [pmm]
        if m + 1 <= L:
            col.append(math.sqrt(2 * m + 3.0) * x * pmm)
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            col.append(a * (x * col[-1] - b * col[-2]))
        yield m, col


def normalized_assoc_legendre(L: int, x) -> np.ndarray:
    """Fully normalized associated Legendre table, shape (L+1, L+1, n).

    Entry [l, m] is N_{l m} P_l^m(x) with the normalization chosen so that the
    real harmonics built in ``basis_matrix`` have unit L^2(sigma) norm:
    integral over the sphere of (table[l,0])^2 d sigma = 1 for m = 0 and the
    cos/sin pairs carry an extra sqrt(2).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    P = np.zeros((L + 1, L + 1, x.size))
    for m, col in _legendre_orders(L, x):
        P[m:, m] = col
    return P


def _basis_matrix_circle(L: int, points: np.ndarray) -> np.ndarray:
    theta = np.arctan2(points[:, 1], points[:, 0])
    n = points.shape[0]
    B = np.empty((n, 2 * L + 1))
    B[:, 0] = 1.0 / math.sqrt(2.0 * math.pi)
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    for k in range(1, L + 1):
        B[:, 2 * k - 1] = np.cos(k * theta) * inv_sqrt_pi
        B[:, 2 * k] = np.sin(k * theta) * inv_sqrt_pi
    return B


def _basis_matrix_sphere(L: int, points: np.ndarray) -> np.ndarray:
    """Real spherical harmonic values, one order m at a time (no (L+1)^2 * n
    Legendre cube); per degree l the columns are m=0, then (cos, sin) for m = 1..l."""
    x = points[:, 2]
    phi = np.arctan2(points[:, 1], points[:, 0])
    B = np.empty((points.shape[0], (L + 1) ** 2))
    sqrt2 = math.sqrt(2.0)
    for m, col in _legendre_orders(L, x):
        if m == 0:
            for l, p in enumerate(col):
                B[:, l * l] = p
            continue
        cos_m = np.cos(m * phi)
        sin_m = np.sin(m * phi)
        for l, p in enumerate(col, start=m):
            B[:, l * l + 2 * m - 1] = sqrt2 * p * cos_m
            B[:, l * l + 2 * m] = sqrt2 * p * sin_m
    return B


@dataclass(frozen=True, eq=False)
class RingFactors:
    """The d=2 basis on a product rule as two factors, so that ``B @ c`` and
    ``B.T @ w`` never form the n_nodes x dim Pi_L matrix B.

    Column (l, m, cos|sin) of B at node (ring j, longitude k), in ring-major
    node order, is ``legendre[m, j, l] * trig[2m (+1 for sin), k]``.  ``slot``
    places basis column i at cell ``slot[i]`` of the flattened (m, l, cos|sin)
    coefficient grid; the cells of P_lm with l < m and of sin(0 phi) are zero.
    """

    legendre: np.ndarray  # (L+1, n_t, L+1): [m, j, l] = s_m P_lm(x_j), s_0 = 1, s_m = sqrt(2)
    trig: np.ndarray  # (2(L+1), n_phi): rows cos(m phi_k), sin(m phi_k) for m = 0..L
    slot: np.ndarray  # (dim Pi_L,)

    def forward(self, c: np.ndarray) -> np.ndarray:
        """Values at the nodes, ``B @ c``: per order m a Legendre sum on every
        ring, then the trigonometric sums along each ring."""
        n_m, n_t, _ = self.legendre.shape
        grid = np.zeros(n_m * n_m * 2)
        grid[self.slot] = c
        ring = np.matmul(self.legendre, grid.reshape(n_m, n_m, 2))  # (m, j, cos|sin)
        return (ring.transpose(1, 0, 2).reshape(n_t, 2 * n_m) @ self.trig).ravel()

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """``B.T @ w``: the trigonometric sums of w along each ring, then per
        order m the Legendre sums over the rings."""
        n_m, n_t, _ = self.legendre.shape
        ring = (w.reshape(n_t, -1) @ self.trig.T).reshape(n_t, n_m, 2).transpose(1, 0, 2)
        grid = np.matmul(self.legendre.transpose(0, 2, 1), ring)  # (m, l, cos|sin)
        return grid.ravel()[self.slot]

    def half_factor(self, a: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
        """Upper-triangular R with ``R.T @ R = B[keep].T @ diag(a[keep]) @ B[keep]``
        (every node when ``keep`` is None), for node weights ``a >= 0``.

        Ring j's rows of B are ``trig.T @ lift_j``, where ``lift_j`` puts the
        ring's Legendre value of each basis column in that column's trig row.
        A QR of the ring's kept rows of ``sqrt(a) * trig.T`` leaves at most
        2(L+1) rows, lifted through ``lift_j``.  Whenever the buffered lifted
        rows reach ``_MERGE_ROWS`` x dim Pi_L they are folded into a running
        triangular factor by one QR, so about (_MERGE_ROWS + 1) dim Pi_L rows
        are held at a time.  This is the node sum regrouped ring by ring.
        """
        n_m, n_t, _ = self.legendre.shape
        N = self.slot.size
        m, l, s = np.unravel_index(self.slot, (n_m, n_m, 2))
        lift = self.legendre[m, :, l]  # (dim Pi_L, n_t)
        root = np.sqrt(a).reshape(n_t, -1)
        kept = np.ones(root.shape, dtype=bool) if keep is None else np.reshape(keep, root.shape)
        blocks, rows = [np.empty((0, N))], 0
        for j in range(n_t):
            W = root[j, kept[j], None] * self.trig.T[kept[j]]
            if W.shape[0]:
                blocks.append(np.linalg.qr(W, mode="r")[:, 2 * m + s] * lift[:, j])
                rows += blocks[-1].shape[0]
                if rows >= _MERGE_ROWS * N:
                    blocks, rows = [np.linalg.qr(np.vstack(blocks), mode="r")], 0
        return _triangular_factor(np.vstack(blocks), N)


def _triangular_factor(rows: np.ndarray, n: int) -> np.ndarray:
    """n x n upper-triangular R with R.T @ R = rows.T @ rows (zero for no rows)."""
    R = np.linalg.qr(rows, mode="r")
    return np.vstack([R, np.zeros((n - R.shape[0], n))])


def ring_factors(spec: BasisSpec, rule) -> RingFactors:
    """Factors of ``basis_matrix(spec, rule.nodes)`` for a d=2 product rule from
    ``build_quadrature``: n_t Gauss-Legendre rings of n_phi equispaced
    longitudes starting at phi = 0, as ``ring_layout`` reads them."""
    if spec.d != 2 or rule.d != 2:
        raise ValueError("ring factors need a d=2 product rule (n_t rings x n_phi longitudes)")
    n_phi = ring_layout(rule)[1]
    z = rule.nodes[::n_phi, 2]
    L = spec.L
    scale = np.full(L + 1, math.sqrt(2.0))
    scale[0] = 1.0
    legendre = normalized_assoc_legendre(L, z).transpose(1, 2, 0) * scale[:, None, None]
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    m_phi = np.outer(np.arange(L + 1), phi)
    trig = np.stack([np.cos(m_phi), np.sin(m_phi)], axis=1).reshape(2 * (L + 1), n_phi)
    # same column layout as _basis_matrix_sphere: per degree l, m = 0 then (cos, sin) for m = 1..l
    slot = [2 * (l + (L + 1) * ((i + 1) // 2)) + (i > 0 and i % 2 == 0)
            for l in range(L + 1) for i in range(2 * l + 1)]
    return RingFactors(np.ascontiguousarray(legendre), trig, np.array(slot, dtype=np.intp))


def basis_matrix(spec: BasisSpec, points) -> np.ndarray:
    """Matrix of all basis values at the given points: shape (n_points, dim Pi_L)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != spec.d + 1:
        raise ValueError(f"points must have {spec.d + 1} coordinates")
    if spec.d == 1:
        return _basis_matrix_circle(spec.L, pts)
    return _basis_matrix_sphere(spec.L, pts)


def basis_eval(spec: BasisSpec, u) -> np.ndarray:
    """All basis values at a single point."""
    return basis_matrix(spec, np.atleast_2d(np.asarray(u, dtype=float)))[0]
