"""Geometric functionals on set families and weights: local relative density,
harmonic measure and its boundary-layer infimum, doubling diagnostics,
A_infinity / RH_infinity checks, and the good-cap regularization E*.

Infima over the sphere are approximated from above by minima over explicit
center grids; every report records the grid and rule used so runs reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMeasureError, NetConstructionError, ResolutionError
from .geometry import (
    candidate_centers,
    cap_measure,
    covering_net,
    frame_at,
    north_pole,
    random_points,
)
from .measures import Lebesgue, MeasureSpec, PowerDistanceWeight, cap_mass, weight_values
from .quadrature import QuadratureRule, Sampling, cap_quadrature, ring_layout, rule_dim
from .sets import CapUnion, EmptySet, SetSpec, cap_dots
from .special import sphere_measure

__all__ = [
    "DensityReport",
    "HarmonicReport",
    "WeightReport",
    "relative_density",
    "density_profile",
    "harmonic_measure",
    "harmonic_infimum",
    "doubling_constant",
    "ainfty_check",
    "rhinfty_check",
    "regularize_set",
]

# harmonic scan blocks: 64 x 2048 kernel entries (1 MB), small enough that the
# elementwise passes over a block stay in cache
_CENTER_CHUNK = 64
_NODE_CHUNK = 2048
# every _SEED_STRIDE-th center of the harmonic grid is summed in full; the
# smallest of those sums bounds the partial sums the other centers may keep
_SEED_STRIDE = 16
# (center, ring) pairs, or counted (center, node) pairs, per density block; bounds the scan's temporaries
_PAIR_BLOCK = 1 << 20
# polar-angle slack of a window's ring band: a node the float64 test counts lies
# within radius + sqrt(2 * 1e-15) of the center, far inside radius + 1e-6
_BAND_SLACK = 1e-6
# cap radii probed by both ainfty_check and rhinfty_check, and the A_infinity beta grid
_CHECK_RADII = (0.2, 0.5, 1.0)
_AINFTY_BETAS = (0.5, 1.0, 2.0)
# centers sampled by doubling_constant
_DOUBLING_CENTERS = 24


@dataclass(frozen=True, eq=False)
class DensityReport:
    """Grid minimum of the local density ratio (an upper approximation of the infimum)."""

    rho_hat: float
    argmin_center: np.ndarray
    r: float
    L: int
    resolution: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class HarmonicReport:
    """Grid minimum of harmonic measure over the shell |x| = 1 - 1/L."""

    delta_hat: float
    argmin_center: np.ndarray
    L: int
    resolution: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class WeightReport:
    """Sampled weight diagnostics; only the fields of the check that ran are set."""

    doubling_constant: float | None = None
    doubling_exponent: float | None = None
    doubling_c_low: float | None = None
    ainfty: tuple | None = None
    rhinfty: tuple | None = None
    config: dict = field(default_factory=dict)
    witness: dict | None = None


def _center_blocks(counts: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive center ranges whose counts sum to at most ``_PAIR_BLOCK``,
    or single centers whose count alone is larger."""
    csum = np.cumsum(counts)
    bounds = [0]
    while bounds[-1] < counts.shape[0]:
        done = csum[bounds[-1] - 1] if bounds[-1] else 0
        bounds.append(max(bounds[-1] + 1, int(np.searchsorted(csum, done + _PAIR_BLOCK, side="right"))))
    return list(zip(bounds[:-1], bounds[1:]))


def _ring_runs(c, rings, coords, n_phi, cos_w):
    """``(first, count)`` of the run of longitudes each (center, ring) pair's
    window holds: ``c`` holds the pairs' centers, ``rings`` their ring
    indices and ``coords`` the rule's nodes, one row per coordinate.  The
    run within arccos((cos_w - c_z t) / (rho_c s)) of the center's longitude
    is a first guess; then each end takes in its outer neighbour while the
    float64 test passes it and gives up its own node while the test fails
    it, until neither end moves."""
    d = coords.shape[0] - 1
    base = rings * n_phi
    num = cos_w - c[:, 2] * coords[2, base] if d == 2 else np.full(rings.size, cos_w)
    den = np.hypot(c[:, 0], c[:, 1]) * coords[0, base]
    # a center on the axis sees its whole ring at one dot product
    q = np.divide(num, den, out=np.where(num > 0.0, np.inf, -np.inf), where=den > 0.0)
    step = 2.0 * math.pi / n_phi
    mid = np.arctan2(c[:, 1], c[:, 0]) / step
    half = np.arccos(np.clip(q, -1.0, 1.0)) / step
    first = np.ceil(mid - half).astype(np.int64)
    count = np.minimum(np.floor(mid + half).astype(np.int64) - first + 1, n_phi)
    c = c.T.copy()

    def passes(live, k):
        return cap_dots(c[:, live], coords[:, base[live] + k % n_phi]) >= cos_w

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


def _local_masses(centers, rule, windows):
    """Per-center masses, one array per (values, radius) window: values summed over B(c, radius).

    Node u counts for center c when ``sets.cap_dots(c, u) >= cos(radius)``,
    the test membership decides caps by; a radius of pi or more takes the
    whole sphere.  ``rule`` must be a product rule (``ring_layout``; the
    uniform rule on S^1 is one ring), else ValueError.  The nodes a cap holds
    on one ring are a run of consecutive longitudes, found from its closed
    form and settled by that same test at both ends (``_ring_runs``), so the
    counted nodes are those an all-pairs scan counts whenever the nodes the
    test passes on a ring are consecutive.  Only rings within the widest
    radius of a center are visited.  A center's nodes are summed one after
    another, ring by ring, so windows holding equally many equal-weight nodes
    tie exactly.
    """
    n_phi = ring_layout(rule)[1]
    coords = np.ascontiguousarray(rule.nodes.T)
    cos_r = [math.cos(min(radius, math.pi)) for _, radius in windows]
    reach = min(max(radius for _, radius in windows), math.pi) + _BAND_SLACK
    # polar angles, negated so that they ascend with the ring index
    polar = -np.arctan2(coords[0, ::n_phi], coords[2, ::n_phi] if rule.d == 2 else 0.0)
    c_polar = -np.arctan2(np.hypot(centers[:, 0], centers[:, 1]), centers[:, 2] if rule.d == 2 else 0.0)
    lowest = np.searchsorted(polar, c_polar - reach)
    band = np.searchsorted(polar, c_polar + reach, side="right") - lowest
    masses = [np.zeros(centers.shape[0]) for _ in windows]
    for c0, c1 in _center_blocks(band):
        owner = np.repeat(np.arange(c1 - c0), band[c0:c1])
        pair_end = np.cumsum(band[c0:c1])
        rings = lowest[c0:c1][owner] + np.arange(owner.size) - (pair_end - band[c0:c1])[owner]
        pair_centers = centers[c0:c1][owner]
        runs = {cos_w: _ring_runs(pair_centers, rings, coords, n_phi, cos_w) for cos_w in dict.fromkeys(cos_r)}
        held = np.max([np.bincount(owner, weights=count, minlength=c1 - c0) for _, count in runs.values()], axis=0)
        pair_end = np.concatenate([[0], pair_end])
        for b0, b1 in _center_blocks(held):
            p0, p1 = pair_end[b0], pair_end[b1]
            for cos_w, (first, count) in runs.items():
                count = count[p0:p1]
                offset = np.cumsum(count) - count
                k = np.repeat(first[p0:p1] - offset, count) + np.arange(int(count.sum()))
                k %= n_phi
                k += np.repeat(rings[p0:p1] * n_phi, count)
                owners = np.repeat(owner[p0:p1] - b0, count)
                for out, (values, _), cos_v in zip(masses, windows, cos_r):
                    if cos_v == cos_w:
                        out[c0 + b0 : c0 + b1] = np.bincount(owners, weights=values[k], minlength=b1 - b0)
    return masses


def density_profile(
    E: SetSpec,
    mu: MeasureSpec,
    L: int,
    num_radius: float,
    den_radius: float,
    rule: QuadratureRule | None = None,
    d: int | None = None,
    sampling: Sampling = Sampling(),
) -> DensityReport:
    """Min over grid centers u of mu(E cap B(u, num_radius)) / mu(B(u, den_radius)).

    ``sampling`` sizes the center grid, refined until its spacing is below the
    smaller window, and the rule unless one is given.  A given rule must be a
    product rule from ``build_quadrature`` (``ring_layout``), else ValueError."""
    d = rule_dim(d, rule)
    if L < 1:
        raise ValueError("degree must be >= 1")
    if not (0.0 < num_radius <= math.pi and 0.0 < den_radius <= math.pi):
        raise ValueError(f"window radii must lie in (0, pi], got {num_radius} and {den_radius}")
    scale = min(num_radius, den_radius)
    resolution = sampling.per_great_circle(L, window=scale)
    if rule is None:
        rule = sampling.rule(E, d, window=scale)
    centers = candidate_centers(d, resolution)
    den_vals = rule.weights * weight_values(mu, rule.nodes)
    num, den = _local_masses(centers, rule, [(den_vals * rule.inside(E), num_radius), (den_vals, den_radius)])
    if np.any(den <= 0.0):
        raise ResolutionError("a window cap caught no quadrature node; refine the rule")
    rho = num / den
    i = int(np.argmin(rho))
    return DensityReport(
        rho_hat=float(rho[i]),
        argmin_center=centers[i].copy(),
        r=num_radius * L,
        L=L,
        resolution={
            "per_great_circle": resolution,
            "n_centers": centers.shape[0],
            "rule": dict(rule.descriptor),
        },
    )


def relative_density(
    E: SetSpec,
    mu: MeasureSpec,
    L: int,
    r: float,
    d: int | None = None,
    sampling: Sampling = Sampling(),
) -> DensityReport:
    """Grid approximation of inf_u mu(E cap B(u, r/L)) / mu(B(u, r/L))."""
    return density_profile(E, mu, L, r / L, r / L, d=d, sampling=sampling)


def _poisson_from_dots(t: np.ndarray, d: int, root: np.ndarray | None = None) -> np.ndarray:
    """1/|x - u|^(d+1) from squared distances t = |x - u|^2, overwriting ``t``;
    ``root``, of t's shape, takes the square root for d=2."""
    if d == 2:
        t *= np.sqrt(t, out=root)
    elif d != 1:
        raise ValueError(f"unsupported sphere dimension d={d}")
    np.reciprocal(t, out=t)
    return t


def _poisson_sums(
    centers: np.ndarray, nodes: np.ndarray, values: np.ndarray, rho: float, d: int, bound: float = math.inf
) -> tuple[np.ndarray, int]:
    """Per-center sums over all nodes u of P(rho c, u) * values[u], and the
    number of (center, node) terms summed.

    The scan runs one node chunk at a time over blocks of centers, and every
    center adds its chunks in node order.  The kernel is positive, so with
    nonnegative values a partial sum never exceeds the full one: after each
    chunk, a center whose partial sum is above ``bound`` is dropped and
    reported as +inf.  Every other sum is complete.
    """
    # |rho c - u|^2 = [-2 rho c, 1 + rho^2] . [u, 1]; 1 - rho^2 goes into the values
    lifted = np.hstack([-2.0 * rho * centers, np.full((centers.shape[0], 1), 1.0 + rho * rho)])
    nodes = np.hstack([nodes, np.ones((nodes.shape[0], 1))])
    values = values * (1.0 - rho * rho)
    live = np.arange(centers.shape[0])
    acc = np.zeros(centers.shape[0])
    root = np.empty(_CENTER_CHUNK * _NODE_CHUNK)
    pairs = 0
    for i0 in range(0, nodes.shape[0], _NODE_CHUNK):
        chunk = nodes[i0 : i0 + _NODE_CHUNK].T
        chunk_values = values[i0 : i0 + _NODE_CHUNK]
        for c0 in range(0, live.size, _CENTER_CHUNK):
            t = lifted[c0 : c0 + _CENTER_CHUNK] @ chunk
            acc[c0 : c0 + _CENTER_CHUNK] += _poisson_from_dots(t, d, root[: t.size].reshape(t.shape)) @ chunk_values
        pairs += live.size * chunk.shape[1]
        keep = ~(acc > bound)
        if not keep.all():
            live, lifted, acc = live[keep], lifted[keep], acc[keep]
    sums = np.full(centers.shape[0], math.inf)
    sums[live] = acc
    return sums, pairs


def harmonic_measure(E: SetSpec, x, rule: QuadratureRule) -> float:
    """Poisson integral of the indicator of E at the interior point x."""
    x = np.asarray(x, dtype=float)
    rho = float(np.linalg.norm(x))
    if rho >= 1.0:
        raise ValueError("evaluation point must lie strictly inside the unit ball")
    mask = rule.inside(E)
    if not mask.any():
        return 0.0
    # at the origin the kernel is 1, so any unit vector serves as the center
    center = x / rho if rho > 0.0 else north_pole(rule.d)
    values = rule.weights[mask] / sphere_measure(rule.d)
    sums, _ = _poisson_sums(center[None, :], rule.nodes[mask], values, rho, rule.d)
    return float(sums[0])


def harmonic_infimum(
    E: SetSpec,
    L: int,
    rule: QuadratureRule | None = None,
    d: int | None = None,
    sampling: Sampling = Sampling(),
) -> HarmonicReport:
    """Min of harmonic measure over x = (1 - 1/L) u with u on the center grid
    ``sampling`` sizes, on ``rule`` or the one ``sampling`` builds."""
    d = rule_dim(d, rule)
    if L < 1:
        raise ValueError("degree must be >= 1")
    resolution = sampling.per_great_circle(L)
    if rule is None:
        rule = sampling.rule(E, d, window=1.0 / L)
    centers = candidate_centers(d, resolution)
    mask = rule.inside(E)
    grid = {"per_great_circle": resolution, "n_centers": centers.shape[0], "rule": dict(rule.descriptor)}
    if not mask.any():
        return HarmonicReport(0.0, centers[0].copy(), L, {**grid, "pairs_summed": 0})
    nodes, values, rho = rule.nodes[mask], rule.weights[mask] / sphere_measure(d), 1.0 - 1.0 / L
    # the seeds' smallest full sum is a grid value, so a center whose partial
    # sum exceeds it cannot hold the grid minimum
    seed = np.zeros(centers.shape[0], dtype=bool)
    seed[::_SEED_STRIDE] = True
    acc = np.empty(centers.shape[0])
    acc[seed], seed_pairs = _poisson_sums(centers[seed], nodes, values, rho, d)
    acc[~seed], rest_pairs = _poisson_sums(centers[~seed], nodes, values, rho, d, bound=float(acc[seed].min()))
    best_i = int(np.argmin(acc))
    return HarmonicReport(
        delta_hat=float(acc[best_i]),
        argmin_center=centers[best_i].copy(),
        L=L,
        resolution={**grid, "pairs_summed": seed_pairs + rest_pairs},
    )


def _sample_centers(mu: MeasureSpec, d: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = [random_points(d, n, rng)]
    if isinstance(mu, PowerDistanceWeight):
        pts.append(mu.pole[None, :])
    return np.vstack(pts)


def doubling_constant(
    mu: MeasureSpec,
    scales,
    centers: np.ndarray | None = None,
    d: int | None = None,
    seed: int = 0,
) -> WeightReport:
    """Sampled doubling constant sup mu(B(u, 2 delta))/mu(B(u, delta)) plus a
    power-growth exponent fitted to the sampled ball masses."""
    scales = np.asarray(sorted(float(s) for s in scales))
    if scales.size == 0 or scales.min() <= 0 or scales.max() > math.pi / 2:
        raise ValueError("scales must lie in (0, pi/2]")
    if centers is None:
        if d is None:
            raise ValueError("give centers or the sphere dimension d")
        centers = _sample_centers(mu, d, _DOUBLING_CENTERS, seed)
    else:
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        d = centers.shape[1] - 1
    radii = np.unique(np.concatenate([scales, 2.0 * scales]))
    masses = np.empty((centers.shape[0], radii.size))
    for i, u in enumerate(centers):
        for j, rad in enumerate(radii):
            masses[i, j] = cap_mass(mu, d, u, float(rad))
    if np.any(masses <= 0.0):
        bad = np.argwhere(masses <= 0.0)[0]
        raise DegenerateMeasureError(
            f"mu(B(u, {radii[bad[1]]:.4g})) = 0 at center index {bad[0]}"
        )
    idx2 = np.searchsorted(radii, 2.0 * scales)
    idx1 = np.searchsorted(radii, scales)
    ratios = masses[:, idx2] / masses[:, idx1]
    C = float(ratios.max())

    # growth exponent over all radius pairs, so ratio <= q**gamma on every
    # sampled pair, and the constant making the lower bound q**(1/gamma) hold
    j, k = np.triu_indices(radii.size, 1)
    q = radii[k] / radii[j]
    ratio = masses[:, k] / masses[:, j]
    gamma = max(1.0, float((np.log(ratio) / np.log(q)).max()))
    c_low = max(1.0, float((q ** (1.0 / gamma) / ratio).max()))
    return WeightReport(
        doubling_constant=C,
        doubling_exponent=gamma,
        doubling_c_low=c_low,
        config={"scales": scales.tolist(), "n_centers": int(centers.shape[0]), "seed": seed},
    )


def _tangent_at(u: np.ndarray) -> np.ndarray:
    """A fixed unit tangent at u: the first frame column made tangent at u, or
    the second where the first is too close to u's direction."""
    R = frame_at(u)
    for e in np.eye(u.shape[0])[:2]:
        t = R @ e
        t = t - (t @ u) * u
        n = np.linalg.norm(t)
        if n >= 1e-9:
            break
    return t / n


def _ainfty_subsets(mu: MeasureSpec, d: int, u: np.ndarray, delta: float, masses: dict):
    """(sigma(E), omega(E), tag) for the structured subsets of B(u, delta);
    ``masses`` memoizes omega(B(u, radius)) by exact radius across calls."""

    def mass(radius: float) -> float:
        if radius not in masses:
            masses[radius] = cap_mass(mu, d, u, radius)
        return masses[radius]

    out = []
    sig_b = cap_measure(d, delta)
    w_b = mass(delta)
    for frac, tag in ((0.5, "half-subcap"), (0.25, "quarter-subcap")):
        out.append((cap_measure(d, frac * delta), mass(frac * delta), tag))
    out.append((sig_b - cap_measure(d, 0.5 * delta), w_b - mass(0.5 * delta), "annulus"))
    shifted = math.cos(delta / 2.0) * u + math.sin(delta / 2.0) * _tangent_at(u)
    shifted = shifted / np.linalg.norm(shifted)
    out.append((cap_measure(d, delta / 2.0), cap_mass(mu, d, shifted, delta / 2.0), "offcenter-subcap"))
    return sig_b, w_b, out


def ainfty_check(
    mu: MeasureSpec,
    d: int,
    seed: int = 0,
    n_caps: int = 12,
) -> WeightReport:
    """Smallest (B, beta) on the beta grid making omega(B) <= B (sigma(B)/sigma(E))^beta omega(E)
    hold over the sampled caps and structured subsets; failure carries a witness."""
    centers = _sample_centers(mu, d, n_caps, seed)
    records = []
    witness = None
    passed = True
    for u in centers:
        masses = {}
        for delta in _CHECK_RADII:
            sig_b, w_b, subsets = _ainfty_subsets(mu, d, u, float(delta), masses)
            for sig_e, w_e, tag in subsets:
                if w_e <= 0.0:
                    if w_b > 0.0:
                        passed = False
                        if witness is None:
                            witness = {"center": u.tolist(), "delta": float(delta), "subset": tag}
                    continue
                records.append((w_b, sig_b, w_e, sig_e))
    best_beta = None
    best_B = math.inf
    per_beta = {}
    for beta in _AINFTY_BETAS:
        if not records:
            break
        need = max(w_b / ((sig_b / sig_e) ** beta * w_e) for w_b, sig_b, w_e, sig_e in records)
        per_beta[float(beta)] = float(need)
        if need < best_B:
            best_B = float(need)
            best_beta = float(beta)
    if not passed:
        best_B = math.inf
    return WeightReport(
        ainfty=(best_B, best_beta, passed),
        config={"seed": seed, "n_caps": n_caps, "radii": list(_CHECK_RADII), "per_beta": per_beta},
        witness=witness,
    )


def rhinfty_check(
    mu: MeasureSpec,
    d: int,
    seed: int = 0,
    n_caps: int = 12,
) -> WeightReport:
    """Smallest C with omega(u) <= (C/sigma(B)) integral_B omega over the sampled caps,
    the supremum probed on local quadrature nodes."""
    centers = _sample_centers(mu, d, n_caps, seed)
    C = 1.0
    passed = True
    witness = None
    for u in centers:
        for delta in _CHECK_RADII:
            local = cap_quadrature(d, u, float(delta))
            # cap_mass's value over the cap's measure, from the rule built for the sup
            if isinstance(mu, Lebesgue):
                avg = 1.0
            else:
                avg = float(local.weights @ weight_values(mu, local.nodes)) / cap_measure(d, float(delta))
            sup = float(weight_values(mu, np.vstack([local.nodes, u[None, :]])).max())
            if avg <= 0.0:
                if sup > 0.0:
                    passed = False
                    if witness is None:
                        witness = {"center": u.tolist(), "delta": float(delta)}
                continue
            if not math.isfinite(sup):
                passed = False
                if witness is None:
                    witness = {"center": u.tolist(), "delta": float(delta), "sup": "inf"}
            C = max(C, sup / avg)
    if not passed:
        C = math.inf
    return WeightReport(
        rhinfty=(C, passed),
        config={"seed": seed, "n_caps": n_caps, "radii": list(_CHECK_RADII)},
        witness=witness,
    )


def regularize_set(
    E: SetSpec,
    L: int,
    eps: float,
    delta: float | None = None,
    d: int | None = None,
    default_delta_r: float = 2.0,
    sampling: Sampling = Sampling(),
) -> SetSpec:
    """Good-cap regularization: cover the sphere by caps B(v, eps/L) on a
    bounded-overlap net, keep those holding at least a delta fraction of
    surface measure of E, and return their union.

    With delta unset, half the measured relative density of E at scale
    ``default_delta_r``/L is used, matching the construction's smallness
    requirement on delta relative to the density.  ``sampling`` sizes that
    density scan and the rule the caps are weighed on.
    """
    if d is None:
        raise ValueError("give the sphere dimension d")
    if L < 1 or eps <= 0:
        raise ValueError("need L >= 1 and eps > 0")
    radius = eps / L
    net = covering_net(d, radius)
    if delta is None:
        delta = 0.5 * relative_density(E, Lebesgue(), L, default_delta_r, d=d, sampling=sampling).rho_hat
    rule = sampling.rule(E, d, window=radius)
    num, den = _local_masses(net, rule, [(rule.weights * rule.inside(E), radius), (rule.weights, radius)])
    if np.any(den <= 0.0):
        raise NetConstructionError("net caps too small for the rule resolution")
    good = num >= delta * den
    if not good.any():
        return EmptySet()
    return CapUnion(net[good], np.full(int(good.sum()), radius))
