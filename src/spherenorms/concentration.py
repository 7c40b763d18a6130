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
rule is Gauss-Legendre on the pieces of the circle cut at E's ends, kept
where E holds them (``arc_quadrature``): all its nodes lie in E and it
integrates the degree-2L products to rounding, so those Grams carry no
masking error.  Elsewhere set indicators mask a densified global rule.
The rule's node x basis matrix B is applied one way per dimension.  On S^2
the ring factors of a ``build_quadrature`` product rule apply B and B^T and
build half-factors ring by ring (per-ring QR of the trig rows, lifted through
the ring's Legendre values and folded in one order at a time, see ``basis``);
other d=2 rules raise ValueError.  When the pencil factor has exact zeros
wherever it couples two (order, cos|sin) groups, as on sets centred on the
rule's axis, its SVD runs one group at a time: 2L+1 SVDs of at most L+1
columns in place of one of dim Pi_L (``diagnostics['svd_blocks']``).  On S^1,
B is formed.  No degree is capped: one guard in ``_node_basis`` raises ResourceLimitError before
any array sized by dim Pi_L is allocated, if they would pass 4e8 float64 entries.  The L^p
adversary's L-BFGS-B core is the one piece of SciPy this module loads, after the package's init (``_lbfgsb_core``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .basis import BasisSpec, _triangular_factor, basis_dim, basis_matrix, ring_factors
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
# float64 entries one call may hold in arrays sized by N = dim Pi_L (3.2 GB): N^2 times _SQUARES, two above
# the most a step holds: the half-factor's five (both factors, one QR stack, its copy, the result), T's solve's
# five (both factors, its copies of R_full^T and R_E^T, T) and the pencil SVD's six (both factors, T, the SVD's
# copy of it, U, V^T), and on S^2 N per ring times _RING_ENTRIES: its Legendre values, lift, trig factor (4)
# and its two rows of the QR stack, held twice (4)
_MAX_ENTRIES = 4 * 10**8
_SQUARES = 8
_RING_ENTRIES = 10
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
    per-ring arrays (``_RING_ENTRIES`` N n_t) and trig values (2(L+1) n_phi)
    on S^2, and ``_SQUARES`` N^2 on both."""
    N, (n_t, n_phi) = basis_dim(spec), rule.layout or (0, 0)
    entries = _SQUARES * N * N + (_RING_ENTRIES * N * n_t + 2 * (spec.L + 1) * n_phi if spec.d == 2
                                  else rule.n_nodes * N)
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


def _half_factors(E: SetSpec, mu: MeasureSpec, spec: BasisSpec, rule, full: bool = True):
    """``(rule, basis, R_E, R_full)``: the rule a Gram over E is built from,
    its ``_node_basis`` and the half-factors with G_X = R_X^T R_X.

    On S^1 under the plain measure the rule is ``arc_quadrature``'s, on E's
    pieces of the circle (exact, so it replaces any given rule, whose nodes are never classified);
    else it is ``_degree_rule``'s.
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
    Under a weight, T = R_E R_full^-1 and the witness R_full^-1 v come from LU solves (``np.linalg.solve``).
    ``rule`` is ``_half_factors``'s: on S^1 under the plain measure it is not read.
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
        T = np.linalg.solve(R_full.T, R_E.T).T
    n_masked = int(rule.inside(E).sum())
    try:
        svals, v, n_svd = _split_svd(T, basis.groups)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolve did not converge (dim {basis_dim(spec)}, {n_masked} masked nodes): {exc}"
        ) from exc
    sigma = float(svals[-1])
    lam = sigma * sigma
    witness = v if R_full is None else np.linalg.solve(R_full, v)
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
    n of SVDs run.  When T has no more nonzero entries than its blocks on ``groups``
    (the basis columns' (order, cos|sin) groups; None on S^1), no entry couples two
    groups: one SVD per group answers and v is embedded in the full coefficient
    vector; otherwise one dense SVD of T itself does."""
    blocks = [np.arange(T.shape[1])] if groups is None else [np.flatnonzero(groups == g) for g in np.unique(groups)]
    nnz = np.count_nonzero(T)  # the blocks are copied out only if their sizes leave room for every nonzero
    parts = [T[np.ix_(c, c)] for c in blocks] if len(blocks) > 1 and nnz <= sum(c.size ** 2 for c in blocks) else []
    if not parts or sum(map(np.count_nonzero, parts)) < nnz:
        blocks, parts = [np.arange(T.shape[1])], [T]
    svds = [np.linalg.svd(part, compute_uv=vectors) for part in parts]
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
        t = np.abs(v)
        t **= p - 2.0 if p > 2.0 else p - 1.0  # in place, through the same square and sqrt fast paths as **
        t *= v if p > 2.0 else np.sign(v)
        vp = t * v
        den = a_full @ vp
        r = (a_masked @ vp) / den
        w = a_masked - r * a_full
        g = adjoint(np.multiply(w, t, out=w))
        return r, np.multiply(g, p / den, out=g)

    return fun


def _lbfgsb_core():
    """SciPy's compiled L-BFGS-B core ``scipy.optimize._lbfgsb``, loaded alone from its extension file
    after the ``scipy`` package's own init (``import scipy.optimize`` loads about 320 modules) and
    registered in ``sys.modules``, so a later ``import scipy.optimize`` shares it; one loaded already is used."""
    name = "scipy.optimize._lbfgsb"
    if name not in sys.modules:
        import scipy  # ten light modules, among them a wheel's own shared-library setup (_distributor_init)
        folder, suffixes = os.path.join(scipy.__path__[0], "optimize"), importlib.machinery.EXTENSION_SUFFIXES
        spec = importlib.machinery.FileFinder(folder, (importlib.machinery.ExtensionFileLoader, suffixes)).find_spec(name)
        if spec is None:
            raise ImportError(f"L-BFGS-B core not found: no file {folder}{os.sep}_lbfgsb{suffixes[0]}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _lbfgs(fun, x0: np.ndarray, maxiter: int = 2000):
    """``(x, f, nfev, nit)``: unbounded L-BFGS-B on ``fun(x) = (f, gradient)`` from ``x0``.

    The reverse-communication loop ``scipy.optimize.minimize(method="L-BFGS-B")`` runs over the
    same core, ``setulb`` (Zhu, Byrd, Lu & Nocedal, ACM TOMS Algorithm 778, 1997), with its
    options maxcor=10, maxls=20, ftol=1e-16, gtol=1e-12, so x, f, nfev and nit are minimize's bit
    for bit, without its wrapper around every evaluation: ``fun`` runs at x0, then again only when
    x changed, and the stops at ``maxiter`` iterations and past 15000 evaluations go through
    ``task`` as minimize sets them.  The core comes from ``_lbfgsb_core``, without the rest of SciPy."""
    setulb = _lbfgsb_core().setulb
    n, m = x0.size, 10
    x = np.array(x0, dtype=float)
    bound, nbd = np.zeros(n), np.zeros(n, np.int32)  # nbd = 0: every x_i is free, no bound is read
    wa, iwa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    seen = x.copy()
    f_seen, g_seen = fun(seen)
    f, g, nfev, nit = 0.0, np.zeros(n), 1, 0
    while True:
        setulb(m, x, bound, bound, nbd, f, g, 1e-16 / _EPS, 1e-12, wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # FG: f and g at x, into a fresh g, which setulb may overwrite on a restart
            if (x != seen).any():
                seen = x.copy()
                f_seen, g_seen = fun(seen)
                nfev += 1
            f, g = f_seen, np.array(g_seen, dtype=float)
        elif task[0] == 1:  # NEW_X: an iteration ended
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > 15000:
                task[:] = 5, 502
        else:
            return x, f, nfev, nit


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
    concentration function (``_node_basis``).  Each start runs ``_lbfgs``,
    SciPy's L-BFGS-B core driven directly, which gives the iterates of
    ``scipy.optimize.minimize`` bit for bit at less cost per evaluation.
    """
    if not (1.0 <= p < math.inf):
        raise ValueError("p must lie in [1, infinity)")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if p == 2.0:
        rep = lambda_min(E, mu, L, rule=rule, d=d)
        return PnormReport(value=rep.lambda_min, witness=rep.witness, restarts=(rep.lambda_min,), seed=seed)
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
        x, f, nfev, _ = _lbfgs(objective, c0 / np.linalg.norm(c0))
        val = float(f)
        finals.append(val)
        evals += nfev
        if val < best_val:
            best_val = val
            best_c = x / np.linalg.norm(x)
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
