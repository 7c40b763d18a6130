"""Concentration of polynomial mass on subsets: Gram/concentration matrices,
exact L^2 best constants via a generalized symmetric eigenproblem, L^p and
sup-norm ratio estimation, and the spectral-tail uncertainty ratio.

The best L^2 comparison constant over Pi_L is 1/lambda_min of the pencil
(G_E, G_full), where G_X is the quadratic form Q -> integral_X |Q|^2 dmu in an
orthonormal basis.  lambda_min is computed from half-factors: triangular R_E,
R_full with G_X = R_X^T R_X, and lambda_min = sigma_min(R_E R_full^{-1})^2.
Going through singular values of the factor instead of eigenvalues of the
assembled Gram resolves concentrations down to (eps sigma_max)^2, about
1e-32, not about 1e-16.  ``diagnostics['lambda_floor']`` holds that floor;
sweeps flag values under it as ``below_floor``.  Every other p=2 number --
``gram_matrix``, ``lp_ratio`` at p=2 and ``uncertainty_check`` -- reads the
same half-factors on the same rule.

Every Gram comes from a quadrature rule.  On S^1 under the plain measure the
rule is Gauss-Legendre on E's arcs (``arc_quadrature``): all its nodes lie in
E and it integrates the degree-2L products to rounding, so those Grams carry
no masking error.  Elsewhere set indicators mask a densified global rule.
The rule's node x basis matrix B is applied one way per dimension.  On S^2
the ring factors of a ``build_quadrature`` product rule apply B and B^T and
build half-factors ring by ring (per-ring QR of the trig rows, lifted through
the ring's Legendre values and folded into a running triangular factor every
3 dim Pi_L rows; rings kept whole go group by group, see ``basis``); other
d=2 rules raise ValueError.  When the pencil factor has exact zeros wherever
it couples two (order, cos|sin) groups, as on sets centred on the rule's
axis, its SVD runs one group at a time: 2L+1 SVDs of at most L+1 columns in
place of one of dim Pi_L (``diagnostics['svd_blocks']``).  On S^1, B is formed.  No
degree is capped: one guard in ``_node_basis`` raises ResourceLimitError before
any array sized by dim Pi_L is allocated, if they would pass 4e8 float64 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .basis import _MERGE_ROWS, BasisSpec, _triangular_factor, basis_dim, basis_matrix, ring_factors
from .errors import DegenerateMeasureError, EmptyIntersectionError, ResourceLimitError
from .functionals import _local_masses
from .geometry import candidate_centers
from .measures import Lebesgue, MeasureSpec, weight_values
from .quadrature import QuadratureRule, Sampling, arc_quadrature, rule_dim
from .sets import SetSpec, membership
from .special import peak_polynomial

__all__ = [
    "ConcentrationReport",
    "PnormReport",
    "gram_matrix",
    "lambda_min",
    "lp_ratio",
    "worst_case_lp",
    "uncertainty_check",
    "sup_norm_ratio",
    "sup_norm_ratios",
]

_NODE_CHUNK = 8192
# float64 entries one call may hold in arrays sized by dim Pi_L (3.2 GB), and
# the multiple of dim Pi_L^2 among them: the half-factor's merge stack of
# (_MERGE_ROWS + 1) dim Pi_L rows held three times (blocks, stack, QR copy),
# plus the two factors and two more for the pencil's SVD, which runs later
_MAX_ENTRIES = 4 * 10**8
_SQUARES = 3 * (_MERGE_ROWS + 1) + 4
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class ConcentrationReport:
    """Smallest concentration eigenvalue with its extremal polynomial."""

    lambda_min: float
    best_c2: float
    witness: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class PnormReport:
    """Best L^p ratio found on the masked degree-2L rule (not a bound; exact at p = 2), witness, evaluations."""

    value: float
    witness: np.ndarray
    restarts: tuple
    seed: int
    evals: int = 0


# -- quadrature-path assembly ---------------------------------------------------

def _node_basis(spec: BasisSpec, rule: QuadratureRule):
    """The rule's node x basis matrix B as ``forward(c) = B @ c``,
    ``adjoint(w) = B.T @ w`` and ``half_factor(a, keep)`` (see ``RingFactors``):
    ring factors on S^2, ValueError unless the rule is a product rule; B itself
    on S^1.  First, ResourceLimitError if the arrays sized by N = dim Pi_L
    would pass ``_MAX_ENTRIES`` float64 entries: B (n_nodes N) on S^1, the
    Legendre, lift and trig arrays (2 N n_t + 2(L+1) n_phi) on S^2, and
    ``_SQUARES`` N^2 on both."""
    N, n_t, n_phi = basis_dim(spec), rule.descriptor.get("n_t", 0), rule.descriptor.get("n_phi", 0)
    entries = _SQUARES * N * N + (2 * N * n_t + 2 * (spec.L + 1) * n_phi if spec.d == 2 else rule.n_nodes * N)
    if entries > _MAX_ENTRIES:
        raise ResourceLimitError(f"dim Pi_L = {N} on {rule.n_nodes} nodes needs {entries:.3g} float64 entries "
                                 f"(limit {_MAX_ENTRIES:.0e})")
    if spec.d == 2:
        return ring_factors(spec, rule)
    B = basis_matrix(spec, rule.nodes)

    def half_factor(a, keep=None):
        keep = slice(None) if keep is None else keep
        return _triangular_factor(B[keep] * np.sqrt(a[keep])[:, None], B.shape[1])

    return SimpleNamespace(forward=lambda c: B @ c, adjoint=lambda w: B.T @ w, half_factor=half_factor, groups=None)


def _degree_rule(E: SetSpec, spec: BasisSpec, rule: QuadratureRule | None) -> QuadratureRule:
    """``rule``, or ``Sampling().rule(E, d, 2L)`` when it is None; ValueError
    unless it integrates degree 2L exactly."""
    rule = Sampling().rule(E, spec.d, 2 * spec.L) if rule is None else rule
    if rule.exact_degree < 2 * spec.L:
        raise ValueError("rule exactness must reach degree 2L for the polynomial part")
    return rule


def _coefficients(coeffs, spec: BasisSpec | None, columns: bool = False) -> np.ndarray:
    """``coeffs`` in float64: a vector over ``spec``'s basis or, with
    ``columns``, one column per polynomial (a vector is one column); else ValueError."""
    c = np.asarray(coeffs, dtype=float)
    c = c[:, None] if columns and c.ndim == 1 else c
    if spec is None or c.ndim != 1 + columns or c.shape[0] != basis_dim(spec):
        raise ValueError("coefficients need one row per basis function")
    return c


def _half_factors(E: SetSpec, mu: MeasureSpec, spec: BasisSpec, rule: QuadratureRule | None, full: bool = True):
    """``(rule, basis, R_E, R_full)``: the rule a Gram over E is built from,
    its ``_node_basis`` and the half-factors with G_X = R_X^T R_X.

    On S^1 under the plain measure the rule is Gauss-Legendre on E's arcs
    (exact, so it replaces any given rule); else it is ``_degree_rule``'s.
    ``R_full`` is None under the plain measure, whose full Gram is then the
    identity, and when ``full`` is false.  The full sphere is factored before
    E, which keeps peak memory down on weighted d=2 rules."""
    rule = arc_quadrature(E, 2 * spec.L) if spec.d == 1 and isinstance(mu, Lebesgue) else _degree_rule(E, spec, rule)
    basis = _node_basis(spec, rule)
    a = rule.weights * weight_values(mu, rule.nodes)
    R_full = basis.half_factor(a) if full and not isinstance(mu, Lebesgue) else None
    return rule, basis, basis.half_factor(a, rule.inside(E)), R_full


def gram_matrix(
    E: SetSpec,
    mu: MeasureSpec,
    spec: BasisSpec,
    rule: QuadratureRule | None = None,
) -> np.ndarray:
    """Symmetric PSD matrix of integrals of Y_i Y_j over E against mu, from
    the rule ``_half_factors`` picks (indicator-masked unless it lies in E)."""
    R = _half_factors(E, mu, spec, rule, full=False)[2]
    G = R.T @ R
    return 0.5 * (G + G.T)


def lambda_min(
    E: SetSpec,
    mu: MeasureSpec,
    L: int,
    rule: QuadratureRule | None = None,
    d: int | None = None,
) -> ConcentrationReport:
    """Smallest eigenvalue of G_E x = lambda G_full x over Pi_L, with witness.

    For the plain surface measure with a rule exact to degree 2L the full
    Gram is the identity and the pencil reduces to a standard problem.  No
    Gram is assembled, not even for the residual R_E^T R_E w - lambda R_full^T R_full w.
    """
    d = rule_dim(d, rule)
    spec = BasisSpec(d, L)
    rule, basis, R_E, R_full = _half_factors(E, mu, spec, rule)
    if R_full is None:
        cond_full, T = 1.0, R_E
    else:
        diag_full = np.abs(np.diag(R_full))
        if diag_full.min() <= 1e-14 * max(diag_full.max(), 1.0):
            raise DegenerateMeasureError("full-sphere Gram is numerically singular for this measure")
        s_full = _split_svd(R_full, basis.groups, vectors=False)[0]
        cond_full = float((s_full[0] / s_full[-1]) ** 2)
        import scipy.linalg
        T = scipy.linalg.solve_triangular(R_full, R_E.T, trans="T", lower=False).T
    n_masked = int(rule.inside(E).sum())
    try:
        svals, v, n_svd = _split_svd(T, basis.groups)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolve did not converge (dim {basis_dim(spec)}, {n_masked} masked nodes): {exc}"
        ) from exc
    sigma = float(svals[-1])
    lam = sigma * sigma
    witness = v if R_full is None else scipy.linalg.solve_triangular(R_full, v, lower=False)
    nrm = np.linalg.norm(witness)
    if nrm > 0:
        witness = witness / nrm

    # residual of the pencil at the witness, through the half-factors
    full_w = witness if R_full is None else R_full.T @ (R_full @ witness)
    resid = float(np.linalg.norm(R_E.T @ (R_E @ witness) - lam * full_w))

    diag = {
        "method": "pencil-qr-svd",
        "residual": resid,
        "cond_full": cond_full,
        "n_nodes": rule.n_nodes,
        "n_masked": n_masked,
        "rule": dict(rule.descriptor),
        "lambda_floor": float((_EPS * svals[0]) ** 2),
        "svd_blocks": n_svd,
    }
    return ConcentrationReport(lam, _reciprocal(lam), witness, diag)


def _split_svd(T: np.ndarray, groups: np.ndarray | None, vectors: bool = True):
    """``(svals, v, n)``: the singular values of T, largest first, the right
    singular vector of the smallest (None without ``vectors``) and the number
    n of SVDs run.  When every entry of T coupling two of ``groups`` (the
    basis columns' (order, cos|sin) groups; None on S^1) is exactly zero, one
    SVD per group answers and v is embedded in the full coefficient vector;
    otherwise one dense SVD does."""
    if groups is None or T[groups[:, None] != groups].any():
        blocks = [np.arange(T.shape[1])]
    else:
        blocks = [np.flatnonzero(groups == g) for g in np.unique(groups)]
    svds = [np.linalg.svd(T[np.ix_(cols, cols)], compute_uv=vectors) for cols in blocks]
    if not vectors:
        return np.sort(np.concatenate(svds))[::-1], None, len(blocks)
    k = min(range(len(blocks)), key=lambda i: svds[i][1][-1])
    v = np.zeros(T.shape[1])
    v[blocks[k]] = svds[k][2][-1]
    return np.sort(np.concatenate([svd[1] for svd in svds]))[::-1], v, len(blocks)


def _reciprocal(lam: float) -> float:
    return 1.0 / lam if lam > 0 else math.inf


def lp_ratio(
    coeffs: np.ndarray,
    E: SetSpec,
    mu: MeasureSpec,
    p: float,
    spec: BasisSpec,
    rule: QuadratureRule | None = None,
) -> float:
    """Mass ratio integral_E |Q|^p dmu / integral |Q|^p dmu for Q given in basis coordinates.

    At p = 2 this is the Rayleigh quotient |R_E c|^2 / |R_full c|^2 of the
    pencil ``lambda_min`` solves, from the same half-factors on the same rule;
    other p sum |Q|^p on ``_degree_rule``'s rule (exact to degree 2L), masked by E."""
    if not (1.0 <= p < math.inf):
        raise ValueError("p must lie in [1, infinity)")
    c = _coefficients(coeffs, spec)
    if not np.all(np.isfinite(c)) or np.linalg.norm(c) == 0.0:
        raise ValueError("zero or non-finite polynomial")
    if p == 2.0:
        _, _, R_E, R_full = _half_factors(E, mu, spec, rule)
        e, f = R_E @ c, (c if R_full is None else R_full @ c)
        num, den = float(e @ e), float(f @ f)
    else:
        rule = _degree_rule(E, spec, rule)
        vp = np.abs(_node_basis(spec, rule).forward(c)) ** p
        a = rule.weights * weight_values(mu, rule.nodes)
        num, den = float((a * rule.inside(E)) @ vp), float(a @ vp)
    if den == 0.0:
        raise ValueError("zero polynomial mass")
    return num / den


def _pnorm_objective(forward, adjoint, a_full, a_masked, p):
    """Ratio r = a_E.|v|^p / a.|v|^p at v = B c and its gradient (p / den) B^T((a_E - r a) t),
    t = |v|^(p-1) sign(v), from one ``forward(c) = B @ c``, one ``adjoint(w) = B.T @ w`` and one power.
    For p > 2, t is |v|^(p-2) v: the one form for every p is slower, and its rounding moves a d=1 value at
    the ratio's floor to 0.92 decade from the benchmark reference, whose tolerance is one (README)."""
    def fun(c):
        v = forward(c)
        t = np.abs(v) ** (p - 2.0) * v if p > 2.0 else np.abs(v) ** (p - 1.0) * np.sign(v)
        vp = t * v
        den = a_full @ vp
        r = (a_masked @ vp) / den
        return r, adjoint((a_masked - r * a_full) * t) * (p / den)

    return fun


def worst_case_lp(
    E: SetSpec,
    mu: MeasureSpec,
    L: int,
    p: float,
    restarts: int = 8,
    seed: int = 0,
    rule: QuadratureRule | None = None,
    d: int | None = None,
) -> PnormReport:
    """Least-concentrated polynomial at exponent p: the minimum ratio with its witness.

    At p = 2 the ratio is the Rayleigh quotient of the pencil (G_E, G_full), so
    the value and witness are ``lambda_min``'s, with no search.  Otherwise the
    result is the best ratio found on the masked rule (``_degree_rule``: exact
    to degree 2L), not a bound on the true minimum: projected descent (L-BFGS
    on the scale-invariant ratio) from exactly ``restarts`` starts -- first
    the projection kernel peaked at the thinnest spot of E, then a squared
    zonal peak there, then seeded random coefficient vectors -- with the
    objective evaluations counted.  The basis is applied as in every
    concentration function (``_node_basis``).
    """
    if not (1.0 <= p < math.inf):
        raise ValueError("p must lie in [1, infinity)")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if p == 2.0:
        rep = lambda_min(E, mu, L, rule=rule, d=d)
        return PnormReport(value=rep.lambda_min, witness=rep.witness, restarts=(rep.lambda_min,), seed=seed)
    import scipy.optimize
    d = rule_dim(d, rule)
    spec = BasisSpec(d, L)
    N = basis_dim(spec)
    rule = _degree_rule(E, spec, rule)
    basis = _node_basis(spec, rule)
    mask = rule.inside(E)
    a_full = rule.weights * weight_values(mu, rule.nodes)
    objective = _pnorm_objective(basis.forward, basis.adjoint, a_full, a_full * mask, p)

    rng = np.random.default_rng(seed)
    anchor = _thin_density_center(spec, rule, mask)
    # the projection kernel and the squared zonal peak, both centered at the anchor, then random vectors
    starts = [basis_matrix(spec, anchor[None, :])[0], _zonal_peak_start(spec, rule, anchor, basis.adjoint)]
    starts = starts[:restarts] + [rng.standard_normal(N) for _ in range(restarts - 2)]

    best_val, best_c, finals, evals = math.inf, None, [], 0
    for c0 in starts:
        c0 = np.asarray(c0, dtype=float)
        c0 = c0 / np.linalg.norm(c0)
        res = scipy.optimize.minimize(
            objective,
            c0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 2000, "gtol": 1e-12, "ftol": 1e-16},
        )
        val = float(res.fun)
        finals.append(val)
        evals += res.nfev
        if val < best_val:
            best_val = val
            best_c = res.x / np.linalg.norm(res.x)
    return PnormReport(value=best_val, witness=best_c, restarts=tuple(finals), seed=seed, evals=evals)


def _thin_density_center(spec: BasisSpec, rule: QuadratureRule, mask: np.ndarray) -> np.ndarray:
    """Argmin center of the local density of the set at scale 2/L, on a coarse
    candidate grid: the natural anchor for the peaked adversary starts."""
    if not mask.any() or mask.all():
        return rule.nodes[0]
    centers = candidate_centers(spec.d, 4 * max(spec.L, 3))
    r = 2.0 / max(spec.L, 1)
    ind = mask.astype(float) * rule.weights
    (mass,) = _local_masses(centers, rule, [(ind, r)])
    return centers[int(np.argmin(mass))]


def _zonal_peak_start(spec: BasisSpec, rule: QuadratureRule, center: np.ndarray, adjoint) -> np.ndarray:
    """Squared zonal peak at ``center`` (``peak_polynomial`` of base degree
    max(1, L // 2)), projected onto the basis (degree <= L) through
    ``adjoint(w) = B.T @ w`` on the rule's nodes."""
    peak = peak_polynomial(spec.d, max(1, spec.L // 2), 2, center)
    return adjoint(rule.weights * peak(rule.nodes))


def uncertainty_check(
    coeffs: np.ndarray,
    E: SetSpec,
    spec: BasisSpec,
    rule: QuadratureRule | None = None,
    tail_norm_sq: float = 0.0,
) -> float:
    """Ratio ||f||^2 / (integral_E |f_head|^2 dsigma + tail energy).

    ``coeffs`` holds the degree <= L part in basis coordinates; the spectral
    tail above degree L enters only through its total energy, so it is passed
    as a single nonnegative number (per-degree norms summed by the caller).
    The head's mass on E is |R_E c|^2, from ``lambda_min``'s half-factor for
    the plain measure, so at its witness the ratio is 1/lambda_min.
    """
    if tail_norm_sq < 0:
        raise ValueError("tail energy must be nonnegative")
    c = _coefficients(coeffs, spec)
    head_sq = float(c @ c)
    if head_sq == 0.0 and tail_norm_sq == 0.0:
        raise ValueError("zero function")
    if head_sq == 0.0:
        return 1.0
    e = _half_factors(E, Lebesgue(), spec, rule)[2] @ c
    denom = float(e @ e) + tail_norm_sq
    if denom == 0.0:
        raise ValueError("function vanishes on the set and has no spectral tail")
    return (head_sq + tail_norm_sq) / denom


def sup_norm_ratios(
    Q,
    E: SetSpec,
    grid: np.ndarray,
    weight: MeasureSpec | None = None,
    spec: BasisSpec | None = None,
) -> np.ndarray:
    """Per polynomial, (max over grid nodes in E of |Q| w) / (max over all grid
    nodes of |Q| w); raises if no grid node lands in E.

    ``Q`` is a callable on point arrays or coefficient columns over ``spec``'s
    basis (dim x k; a vector is one column).  The basis is evaluated once per
    grid chunk, so scoring many random polynomials costs little more than
    scoring one.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    C = None if callable(Q) else _coefficients(Q, spec, columns=True)
    mask = membership(E, grid)
    if not mask.any():
        raise EmptyIntersectionError("no evaluation node lies inside the set")
    w = None
    if weight is not None and not isinstance(weight, Lebesgue):
        w = weight_values(weight, grid)
        if not np.all(np.isfinite(w)):
            raise ValueError("weight unbounded on the evaluation grid")
    top = top_E = 0.0
    for i0 in range(0, grid.shape[0], _NODE_CHUNK):
        sl = slice(i0, min(i0 + _NODE_CHUNK, grid.shape[0]))
        pts = grid[sl]
        V = np.asarray(Q(pts), dtype=float).reshape(len(pts), 1) if C is None else basis_matrix(spec, pts) @ C
        vals = np.abs(V)
        if w is not None:
            vals *= w[sl][:, None]
        top = np.maximum(top, vals.max(axis=0))
        m = mask[sl]
        if m.any():
            top_E = np.maximum(top_E, vals[m].max(axis=0))
    if np.any(top == 0.0):
        raise ValueError("zero polynomial")
    return top_E / top


def sup_norm_ratio(
    Q,
    E: SetSpec,
    grid: np.ndarray,
    weight: MeasureSpec | None = None,
    spec: BasisSpec | None = None,
) -> float:
    """The first ratio of ``sup_norm_ratios``: one polynomial ``Q``, a
    callable on point arrays or a coefficient vector over ``spec``'s basis."""
    return float(sup_norm_ratios(Q, E, grid, weight=weight, spec=spec)[0])
