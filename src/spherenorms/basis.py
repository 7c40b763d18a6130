"""Orthonormal bases of the degree-L polynomial space on S^1 and S^2.

d=2 uses real spherical harmonics built from fully normalized associated
Legendre functions (positive convention, no Condon-Shortley sign); d=1 uses
the trigonometric system {1/sqrt(2 pi), cos(k t)/sqrt(pi), sin(k t)/sqrt(pi)}.
Ordering is (degree, order) lexicographic: for each degree the m = 0 function
comes first, then cos/sin pairs for m = 1..degree.  ``_radial_orders`` and
``_order_columns`` define the basis; ``basis_matrix`` evaluates it, and on a
d=2 product rule ``ring_factors`` applies the node x basis matrix and its
transpose, and builds its weighted half-factor, through per-ring Legendre
values and per-longitude trig values, without forming it.  ``RingFactors.groups``
gives each column its (order m, cos|sin) group ``2m + cs``: rings kept whole
(every node, one weight, n_phi >= 2L+1) add to one group at a time, so they
are factored by one QR per group of at most L+1-m columns, and a set keeping
only whole rings gets a block-diagonal factor with no dense QR.
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


def _radial_orders(d: int, L: int, z):
    """Per order m = 0..L, yield (m, radial factor of each degree holding m): on
    S^1 the degree m alone, 1/sqrt(2 pi) at m = 0 and 1/sqrt(pi) after; on S^2
    the degrees l = m..L, N_lm P_l^m(z), times sqrt(2) for m > 0."""
    if d == 1:
        for m in range(L + 1):
            yield m, [1.0 / math.sqrt(2.0 * math.pi) if m == 0 else 1.0 / math.sqrt(math.pi)]
        return
    sqrt2 = math.sqrt(2.0)
    for m, col in _legendre_orders(L, z):
        yield m, col if m == 0 else [sqrt2 * p for p in col]


def _order_columns(d: int, L: int, m: int) -> list[int]:
    """The basis column of order m, or its cos column with sin next, for each
    degree ``_radial_orders`` gives that order.  Per degree the m = 0 column
    comes first, then (cos, sin) pairs; on S^1 the degree is the order."""
    offset = max(2 * m - 1, 0)
    if d == 1:
        return [offset]
    return [l * l + offset for l in range(m, L + 1)]


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

    @property
    def groups(self) -> np.ndarray:
        """The (order, cos|sin) group ``2m + cs`` of each basis column, which is
        also the row of ``trig`` the column takes along a ring."""
        n_m = self.legendre.shape[0]
        return 2 * (self.slot // (2 * n_m)) + self.slot % 2

    def half_factor(self, a: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
        """Upper-triangular R with ``R.T @ R = B[keep].T @ diag(a[keep]) @ B[keep]``
        (every node when ``keep`` is None), for node weights ``a >= 0``.

        Ring j's rows of B are ``trig.T @ lift_j``, where ``lift_j`` puts the
        ring's Legendre value of each basis column in that column's trig row.
        A ring is whole when it keeps every node at one weight and
        ``n_phi >= 2L+1``: its trig rows are then orthogonal, so its QR is the
        diagonal ``sqrt(a_j) |trig row|`` and it adds to one (order, cos|sin)
        group's block alone.  The whole rings are factored by one QR per group
        of their scaled Legendre values, at most L+1-m columns wide; with no
        partial ring that block-diagonal R is the answer.  Otherwise its
        nonzero rows open the stack of partial rings: a QR of a ring's kept
        rows of ``sqrt(a) * trig.T`` leaves at most 2(L+1) rows, lifted
        through ``lift_j``, and whenever the buffered rows reach
        ``_MERGE_ROWS`` x dim Pi_L they are folded into a running triangular
        factor by one QR, so about (_MERGE_ROWS + 1) dim Pi_L rows are held
        at a time.  This is the node sum regrouped ring by ring.
        """
        n_m, n_t, _ = self.legendre.shape
        N = self.slot.size
        m, l, _ = np.unravel_index(self.slot, (n_m, n_m, 2))
        group = self.groups
        lift = self.legendre[m, :, l]  # (dim Pi_L, n_t)
        a = np.reshape(a, (n_t, -1))
        root = np.sqrt(a)
        kept = np.ones(a.shape, dtype=bool) if keep is None else np.reshape(keep, a.shape)
        whole = kept.all(axis=1) & (a == a[:, :1]).all(axis=1) & (a.shape[1] > 2 * (n_m - 1))
        R = np.zeros((N, N))
        if whole.any():
            V = lift[:, whole].T * root[whole, :1] * np.linalg.norm(self.trig, axis=1)[group]
            for g in np.unique(group):
                cols = np.flatnonzero(group == g)
                r = np.linalg.qr(V[:, cols], mode="r")
                R[cols[: r.shape[0], None], cols] = r
        partial = np.flatnonzero(kept.any(axis=1) & ~whole)
        if not partial.size:
            return R
        blocks, rows = [R[R.any(axis=1)]], 0
        for j in partial:
            W = root[j, kept[j], None] * self.trig.T[kept[j]]
            blocks.append(np.linalg.qr(W, mode="r")[:, group] * lift[:, j])
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
    legendre = np.zeros((L + 1, z.size, L + 1))
    slot = np.empty(basis_dim(spec), dtype=np.intp)
    for m, radial in _radial_orders(2, L, z):
        legendre[m, :, m:] = np.transpose(radial)
        for l, col in enumerate(_order_columns(2, L, m), start=m):
            slot[col] = 2 * (l + (L + 1) * m)
            if m:
                slot[col + 1] = slot[col] + 1
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    m_phi = np.outer(np.arange(L + 1), phi)
    trig = np.stack([np.cos(m_phi), np.sin(m_phi)], axis=1).reshape(2 * (L + 1), n_phi)
    return RingFactors(legendre, trig, slot)


def basis_matrix(spec: BasisSpec, points) -> np.ndarray:
    """Matrix of all basis values at the given points: shape (n_points, dim Pi_L)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != spec.d + 1:
        raise ValueError(f"points must have {spec.d + 1} coordinates")
    angle = np.arctan2(pts[:, 1], pts[:, 0])
    B = np.empty((pts.shape[0], basis_dim(spec)))
    for m, radial in _radial_orders(spec.d, spec.L, pts[:, -1]):
        cos_m, sin_m = np.cos(m * angle), np.sin(m * angle)  # cos 0 = 1 exactly
        for col, r in zip(_order_columns(spec.d, spec.L, m), radial):
            B[:, col] = r * cos_m
            if m:
                B[:, col + 1] = r * sin_m
    return B


def basis_eval(spec: BasisSpec, u) -> np.ndarray:
    """All basis values at a single point."""
    return basis_matrix(spec, np.atleast_2d(np.asarray(u, dtype=float)))[0]
