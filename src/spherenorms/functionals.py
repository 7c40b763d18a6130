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
from .geometry import (candidate_centers, cap_measure, fibonacci_lattice, frame_at, north_pole, random_points,
                       uniform_circle)
from .measures import Lebesgue, MeasureSpec, PowerDistanceWeight, cap_masses, weight_values
from .quadrature import QuadratureRule, Sampling, cap_rules, ring_layout, rule_dim
from .sets import CapUnion, EmptySet, FullSphere, SetSpec, _cap_counts, _cos_bound, _ring_pairs, _ring_runs
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
    "covering_net",
    "regularize_set",
]

# harmonic scan blocks: 64 x 2048 kernel entries (1 MB), small enough that the
# elementwise passes over a block stay in cache; harmonic_infimum also sums
# the centers its bounds leave in full 64 at a time
_CENTER_CHUNK = 64
_NODE_CHUNK = 2048
# relative rounding allowance of the patch lower bounds, and the coarse patches' side in fine ones
_BOUND_MARGIN = 1e-8
_COARSE_SIDE = 4
# cap radii probed by both ainfty_check and rhinfty_check, and the A_infinity beta grid
_CHECK_RADII = (0.2, 0.5, 1.0)
_AINFTY_BETAS = (0.5, 1.0, 2.0)
# centers sampled by doubling_constant
_DOUBLING_CENTERS = 24
# densifications covering_net tries before giving up, and the most net caps allowed over one probe node
_NET_TRIES = 4
_OVERLAP_CAP = 24


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


def _local_masses(centers, rule, windows):
    """Per-center masses, one array per (values, radius) window: values summed over B(c, radius).

    Node u counts for center c when ``geometry.cap_dots(c, u) >= cos(radius)``,
    the test membership decides caps by; a radius of pi or more takes the
    whole sphere (``sets._cos_bound``).  ``rule`` must be a product rule
    (``ring_layout``; the uniform rule on S^1 is one ring), else ValueError.  A window holds one
    run of longitudes per ring in its polar band (``sets._ring_runs``), so
    the counted nodes are those an all-pairs scan counts.  Run (first, count)
    of ring j has mass ``w_j (S_j[first + count] - S_j[first])``, ``w_j`` the
    ring's largest |value| and ``S_j`` the running sum from phi = 0 of its values
    over ``w_j``, as hi + lo: hi on the grid of 2^-53 times a power of two above
    2 n_phi, so that its sums are exact (the error-free split of Rump, Ogita and
    Oishi).  An indicator times the weights so gives exact counts, and windows
    with equal counts on each ring tie exactly.  The work goes with the pairs.
    """
    n_phi = ring_layout(rule)[1]
    coords = np.ascontiguousarray(rule.nodes.T)
    cos_r = [_cos_bound(radius) for _, radius in windows]
    sigma = 2.0 ** (2 * n_phi).bit_length()
    sums = []
    for values, _ in windows:
        v = np.reshape(values, (-1, n_phi))
        scale = np.abs(v).max(axis=1)
        scale[scale == 0.0] = 1.0
        v = v / scale[:, None]
        S = np.zeros((2, v.shape[0], n_phi + 1))  # one round; a run past 2 pi adds S_j[first + count - n_phi]
        S[0, :, 1:] = (sigma + v) - sigma
        S[1, :, 1:] = v - S[0, :, 1:]
        S = S if S[1].any() else S[:1].copy()  # lo is 0 where the values over w_j are 0 or 1
        sums.append((scale, np.cumsum(S, axis=2, out=S).reshape(len(S), -1)))
    masses = [np.zeros(centers.shape[0]) for _ in windows]
    for c0, c1, owner, rings in _ring_pairs(centers, coords, n_phi, max(radius for _, radius in windows)):
        pair_centers = centers[c0:c1][owner]
        runs = {cos_w: _ring_runs(pair_centers, rings, coords, n_phi, cos_w) for cos_w in dict.fromkeys(cos_r)}
        for out, (scale, S), cos_w in zip(masses, sums, cos_r):
            first, count = runs[cos_w]
            ring = rings * (n_phi + 1)
            start = ring + first % n_phi
            end = start + count
            run = (np.take(S, np.minimum(end, ring + n_phi), axis=1) - np.take(S, start, axis=1)
                   + np.take(S, np.maximum(end - n_phi, ring), axis=1)).sum(axis=0)  # hi (+ lo)
            out[c0:c1] = np.bincount(owner, weights=scale[rings] * run, minlength=c1 - c0)
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


def _poisson_sums(centers: np.ndarray, nodes: np.ndarray, values: np.ndarray, rho: float, d: int) -> np.ndarray:
    """Per-center sums over all nodes u of P(rho c, u) * values[u].

    The scan runs one node chunk at a time over blocks of centers, and every
    center adds its chunks in node order.
    """
    # |rho c - u|^2 = [-2 rho c, 1 + rho^2] . [u, 1]; 1 - rho^2 goes into the values
    lifted = np.hstack([-2.0 * rho * centers, np.full((centers.shape[0], 1), 1.0 + rho * rho)])
    nodes = np.hstack([nodes, np.ones((nodes.shape[0], 1))])
    values = values * (1.0 - rho * rho)
    sums = np.zeros(centers.shape[0])
    root = np.empty(_CENTER_CHUNK * _NODE_CHUNK)
    for i0 in range(0, nodes.shape[0], _NODE_CHUNK):
        chunk = nodes[i0 : i0 + _NODE_CHUNK].T
        chunk_values = values[i0 : i0 + _NODE_CHUNK]
        for c0 in range(0, centers.shape[0], _CENTER_CHUNK):
            t = lifted[c0 : c0 + _CENTER_CHUNK] @ chunk
            sums[c0 : c0 + _CENTER_CHUNK] += _poisson_from_dots(t, d, root[: t.size].reshape(t.shape)) @ chunk_values
    return sums


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
    return float(_poisson_sums(center[None, :], rule.nodes[mask], values, rho, rule.d)[0])


def _patches(nodes: np.ndarray, values: np.ndarray, L: float) -> tuple[np.ndarray, np.ndarray]:
    """The nodes grouped into patches of side about 1/L: arcs of length 1/L on
    S^1; on S^2, polar bands of width 1/L, each cut into
    ceil(2 pi sin(theta_mid) L) longitude cells.  Returns each nonempty
    patch's weighted mean point (inside the ball) and its mass, the sum of
    its ``values``."""
    phi = np.arctan2(nodes[:, 1], nodes[:, 0]) % (2.0 * math.pi)
    if nodes.shape[1] == 2:
        cell = np.floor(phi * L)
    else:
        band = np.floor(np.arccos(np.clip(nodes[:, 2], -1.0, 1.0)) * L)
        # the last band's nominal midpoint may pass the pole; it keeps one cell
        cells = np.maximum(np.ceil(2.0 * math.pi * L * np.sin((band + 0.5) / L)), 1.0)
        cell = band * (math.ceil(2.0 * math.pi * L) + 1) + np.floor(phi / (2.0 * math.pi) * cells)
    _, patch = np.unique(cell, return_inverse=True)
    masses = np.bincount(patch, weights=values)
    means = np.stack([np.bincount(patch, weights=values * x) for x in nodes.T], axis=1) / masses[:, None]
    return means, masses


def harmonic_infimum(
    E: SetSpec,
    L: int,
    rule: QuadratureRule | None = None,
    d: int | None = None,
    sampling: Sampling = Sampling(),
) -> HarmonicReport:
    """Min of harmonic measure over x = (1 - 1/L) u with u on the center grid
    ``sampling`` sizes, on ``rule`` or the one ``sampling`` builds.

    The minimum is a complete sum at the first grid center holding it, found
    without summing the kernel in full at every center.  At a fixed center c
    the kernel (1 - rho^2) t^(-(d+1)/2) is convex in t = |rho c - u|^2, and
    on the sphere the weighted mean of t over a patch of nodes is
    1 + rho^2 - 2 rho c . u_bar, with u_bar the patch's weighted mean point.
    By Jensen's inequality the Poisson sum over the patch means (``_patches``),
    each carrying its patch's mass, is then a lower bound on every center's
    full sum; it is the same scan on fewer points.  Fine patches have side
    1/L; coarse ones, of side ``_COARSE_SIDE``/L, group the fine means by
    mass, so they group the same nodes more coarsely and bound lower still.
    Every center gets a coarse bound, and the center of lowest coarse bound
    is summed in full, a first best sum.  Fine bounds then go, once, to the
    centers whose coarse bound is within ``_BOUND_MARGIN`` (relative) of that
    best, which are summed in increasing order of fine bound, one center and
    then blocks of ``_CENTER_CHUNK``.  A block's centers whose fine bound
    exceeds the best sum so far by more than the margin are skipped, and the
    scan stops at the first block left empty.

    The margin covers rounding, the only way a computed bound can exceed a
    computed full sum.  Both sides form t >= (1 - rho)^2 = 1/L^2 by the same
    lifted dot, to an absolute error of a few hundred eps at worst, so a term
    is off by at most about 300 eps L^2 relative (4e-9 at L = 256); summing n
    positive terms adds at most n eps (1.3e-9 at the default six million
    nodes).  A mean point's rounding adds a few eps to t's error through
    c . u_bar, and a coarse mean, formed from fine means and masses, adds a
    few more: still within that allowance.  So the margin holds to L = 256 at
    any rule size allowed by default.  Where each patch holds one node, and
    Jensen's inequality is an equality, the bound exceeds the sum by at most
    about 1.5 eps L^2 in practice (1.1e-12 at L = 64); Jensen's gap, by
    contrast, is a few percent wherever a patch holds more than one node.
    """
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
        empty = dict.fromkeys(["pairs_summed", "patches", "patch_pairs", "coarse_patches", "coarse_pairs"], 0)
        return HarmonicReport(0.0, centers[0].copy(), L, {**grid, **empty})
    nodes, values, rho = rule.nodes[mask], rule.weights[mask] / sphere_measure(d), 1.0 - 1.0 / L
    means, masses = _patches(nodes, values, L)
    coarse_means, coarse_masses = _patches(means, masses, L / _COARSE_SIDE)
    coarse = _poisson_sums(centers, coarse_means, coarse_masses, rho, d)
    first = int(np.argmin(coarse))
    sums = np.full(centers.shape[0], math.inf)
    sums[first] = best = float(_poisson_sums(centers[first : first + 1], nodes, values, rho, d)[0])
    near = np.flatnonzero(~(coarse > best * (1.0 + _BOUND_MARGIN)))
    fine = np.full(centers.shape[0], math.inf)
    fine[near] = _poisson_sums(centers[near], means, masses, rho, d)
    order = np.argsort(fine, kind="stable")
    order = order[order != first]
    b0, b1 = 0, 1
    while b0 < order.size:
        block = order[b0:b1]
        block = block[~(fine[block] > best * (1.0 + _BOUND_MARGIN))]
        if block.size == 0:
            break
        sums[block] = _poisson_sums(centers[block], nodes, values, rho, d)
        best = min(best, float(sums[block].min()))
        b0, b1 = b1, b1 + _CENTER_CHUNK
    best_i = int(np.argmin(sums))
    coarse_pairs = centers.shape[0] * coarse_masses.size
    return HarmonicReport(
        delta_hat=float(sums[best_i]),
        argmin_center=centers[best_i].copy(),
        L=L,
        resolution={**grid, "pairs_summed": int(np.isfinite(sums).sum()) * nodes.shape[0], "patches": masses.size,
                    "coarse_patches": coarse_masses.size, "patch_pairs": coarse_pairs + near.size * masses.size,
                    "coarse_pairs": coarse_pairs},
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
    masses = cap_masses(mu, d, np.repeat(centers, radii.size, 0), np.tile(radii, len(centers))).reshape(-1, radii.size)
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
    balls = [(u, float(delta)) for u in centers for delta in _CHECK_RADII]
    caps = []  # B(u, delta), its half and quarter subcaps and the off-center subcap of radius delta/2
    for u, delta in balls:
        shifted = math.cos(delta / 2.0) * u + math.sin(delta / 2.0) * _tangent_at(u)
        caps += [(u, delta), (u, 0.5 * delta), (u, 0.25 * delta), (shifted / np.linalg.norm(shifted), delta / 2.0)]
    masses = cap_masses(mu, d, np.array([c for c, _ in caps]), np.array([r for _, r in caps]))
    for (u, delta), (w_b, w_half, w_quarter, w_off) in zip(balls, masses.reshape(-1, 4).tolist()):
        sig_b, sig_half = cap_measure(d, delta), cap_measure(d, 0.5 * delta)
        subsets = [(sig_half, w_half, "half-subcap"), (cap_measure(d, 0.25 * delta), w_quarter, "quarter-subcap"),
                   (sig_b - sig_half, w_b - w_half, "annulus"), (sig_half, w_off, "offcenter-subcap")]
        for sig_e, w_e, tag in subsets:
            if w_e <= 0.0:
                if w_b > 0.0:
                    passed = False
                    if witness is None:
                        witness = {"center": u.tolist(), "delta": delta, "subset": tag}
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
    balls = [(u, float(delta)) for u in centers for delta in _CHECK_RADII]
    for (u, delta), local in zip(balls, cap_rules(d, [u for u, _ in balls], [delta for _, delta in balls])):
        values = weight_values(mu, np.vstack([local.nodes, u[None, :]]))
        # cap_mass's value over the cap's measure, from the rule built for the sup
        avg = 1.0 if isinstance(mu, Lebesgue) else float(local.weights @ values[:-1]) / cap_measure(d, delta)
        sup = float(values.max())
        if avg <= 0.0:
            if sup > 0.0:
                passed = False
                if witness is None:
                    witness = {"center": u.tolist(), "delta": delta}
            continue
        if not math.isfinite(sup):
            passed = False
            if witness is None:
                witness = {"center": u.tolist(), "delta": delta, "sup": "inf"}
        C = max(C, sup / avg)
    if not passed:
        C = math.inf
    return WeightReport(
        rhinfty=(C, passed),
        config={"seed": seed, "n_caps": n_caps, "radii": list(_CHECK_RADII)},
        witness=witness,
    )


def covering_net(d: int, spacing: float) -> np.ndarray:
    """Discrete net whose caps of radius ``spacing`` cover S^d with bounded overlap.

    d=1 uses a uniform grid (covering radius exactly half the grid step; the
    step is below ``spacing``, so no point lies in more than 5 caps).  d=2
    uses a Fibonacci lattice sized for the target covering radius, densified
    up to ``_NET_TRIES`` times until its caps hold every node of a probe
    rule, the one ``Sampling()`` gives a window of ``spacing`` (so the net is
    built wherever such a window's rule fits under the node cap); no probe
    node may lie in more than ``_OVERLAP_CAP`` caps.  Both are read from the
    caps' counts on the probe (``sets._cap_counts``).
    """
    if spacing <= 0 or spacing > math.pi:
        raise NetConstructionError(f"net spacing {spacing} out of range")
    if d == 1:
        return uniform_circle(int(math.ceil(2.0 * math.pi / spacing)) + 1)
    if d != 2:
        raise ValueError(f"unsupported sphere dimension d={d}")
    probe = Sampling().rule(FullSphere(), 2, window=spacing)
    n = max(16, int(math.ceil(4.0 * math.pi / (0.7 * spacing) ** 2)))
    for _ in range(_NET_TRIES):
        net = fibonacci_lattice(n)
        counts = _cap_counts(CapUnion(net, np.full(n, spacing)), probe.nodes, layout=probe.layout)
        if counts.all():
            if counts.max() > _OVERLAP_CAP:
                raise NetConstructionError(f"cover overlap {counts.max()} exceeds the bound {_OVERLAP_CAP}")
            return net
        n = int(math.ceil(1.5 * n))
    raise NetConstructionError(f"could not reach covering radius {spacing} within {_NET_TRIES} densifications")


def regularize_set(E: SetSpec, L: int, eps: float, delta: float, rule: QuadratureRule) -> SetSpec:
    """Good-cap regularization: cover the sphere by caps B(v, eps/L) on a
    bounded-overlap net, keep those holding at least a ``delta`` fraction of
    surface measure of E, weighed on ``rule`` (a product rule, ``ring_layout``),
    and return their union."""
    if L < 1 or eps <= 0:
        raise ValueError("need L >= 1 and eps > 0")
    radius = eps / L
    net = covering_net(rule.d, radius)
    num, den = _local_masses(net, rule, [(rule.weights * rule.inside(E), radius), (rule.weights, radius)])
    if np.any(den <= 0.0):
        raise NetConstructionError("net caps too small for the rule resolution")
    good = num >= delta * den
    if not good.any():
        return EmptySet()
    return CapUnion(net[good], np.full(int(good.sum()), radius))
