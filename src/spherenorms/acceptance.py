"""Acceptance criteria: one callable check per criterion, runnable via the CLI
(`spherenorms verify`) or pytest.  Each check prints a pass/fail line with the
measured quantities; heavy sweep outputs are cached inside a suite instance so
related criteria share them.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .basis import BasisSpec, basis_dim, basis_matrix, normalized_assoc_legendre
from .concentration import lambda_min, sup_norm_ratio, uncertainty_check
from .config import parse_config
from .functionals import rhinfty_check
from .geometry import candidate_centers, north_pole, random_points, south_pole
from .measures import Lebesgue, PowerDistanceWeight
from .quadrature import Sampling, build_quadrature
from .sets import Arcs, CapUnion, EmptySet, FullSphere, cap_set, realize_family
from .runner import run_experiment
from .special import dim_pi, jacobi_eval, kernel_spec, peak_polynomial, reproducing_kernel, sphere_measure, szego_envelope, szego_estimate

__all__ = ["AcceptanceSuite", "CriterionResult", "CONFIG_FIXED_CAP", "CONFIG_DENSE_NET"]

CONFIG_FIXED_CAP = """\
# Non-dense reference family: one fixed cap, concentration must decay with L.
schema: 1
d: 2
L_list: [8, 16, 32]
seed: 20
label: fixed-cap
family:
  kind: fixed
  set: {kind: cap, center: [0.0, 0.0, 1.0], radius: 1.0471975511965976}
measure: {kind: lebesgue}
functionals:
  - {name: eigen}
  - {name: harmonic}
"""

CONFIG_DENSE_NET = """\
# Scale-invariant dense family: caps of radius 0.5/L on a 2/L net.
schema: 1
d: 2
L_list: [8, 16, 32]
seed: 21
label: dense-net
family: {kind: cap_net, cap_radius_over_L: 0.5, net_spacing_over_L: 2.0}
measure: {kind: lebesgue}
functionals:
  - {name: eigen}
  - {name: density, r: 2.0}
  - {name: harmonic}
"""


# criterion 11 scores the supnorm functional, plain and weighted, on the dense family
CONFIG_SUP_NORM = yaml.safe_dump({**yaml.safe_load(CONFIG_DENSE_NET), "seed": 11, "functionals": [
    {"name": "supnorm"},
    {"name": "supnorm", "tag": "supnorm-weighted",
     "weight": {"kind": "power_distance", "exponent": 2.0, "pole": [0.0, 0.0, 1.0]}}]})
# criterion 12: E's density and the mixed-scale density of its regularization E*
CONFIG_REGULARIZATION = yaml.safe_dump({**yaml.safe_load(CONFIG_DENSE_NET), "L_list": [16], "functionals": [
    {"name": "density", "r": 2.0}, {"name": "regularize", "eps": 0.5}]})


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    seconds: float


def _toeplitz_lambda_min(L: int, a: float) -> float:
    """Closed-form Gram of the complex exponential basis over [-a, a], eigensolved independently."""
    k = np.arange(-L, L + 1)
    D = k[:, None] - k[None, :]
    safe = np.where(D == 0, 1, D)
    G = np.where(D == 0, a / math.pi, np.sin(safe * a) / (math.pi * safe))
    return float(np.linalg.eigvalsh(G)[0])


def _axisym_lambda_min(L: int, radius: float) -> float:
    """Blockwise-in-order assembly for a cap at the pole: exact 1D Gauss-Legendre
    Grams per azimuthal order, smallest squared singular value of the factors."""
    n_q = 4 * (L + 2)
    xg, wg = np.polynomial.legendre.leggauss(n_q)
    a = math.cos(radius)
    x = 0.5 * (1.0 - a) * xg + 0.5 * (1.0 + a)
    w = 0.5 * (1.0 - a) * wg
    P = normalized_assoc_legendre(L, x)
    best = math.inf
    for m in range(L + 1):
        phi_factor = 2.0 * math.pi if m == 0 else math.pi
        M = (np.sqrt(phi_factor * w) * P[m:, m, :]).T
        s = np.linalg.svd(M, compute_uv=False)
        best = min(best, float(s[-1] ** 2))
    return best


class AcceptanceSuite:
    """Runs the acceptance criteria; sweep outputs are cached per instance."""

    def __init__(self, workdir=None, verbose: bool = True):
        self.workdir = Path(workdir) if workdir else Path(tempfile.mkdtemp(prefix="spherenorms-verify-"))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.verbose = verbose
        self._sweeps: dict = {}

    # -- cached sweeps ---------------------------------------------------------

    def _sweep(self, key: str, text: str):
        if key not in self._sweeps:
            cfg = parse_config(text)
            out = self.workdir / key
            results, timings, rows = run_experiment(cfg, out, verbose=False)
            self._sweeps[key] = (results, {(r.L, r.functional): r for r in rows})
        return self._sweeps[key]

    def _rerun_bytes(self, key: str, text: str) -> tuple[bytes, bytes]:
        first_path, _ = self._sweep(key, text)
        cfg = parse_config(text)
        out = self.workdir / f"{key}-rerun"
        results, _, _ = run_experiment(cfg, out, verbose=False)
        return first_path.read_bytes(), results.read_bytes()

    # -- criteria ---------------------------------------------------------------

    def c01_cd_identity(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for L in (4, 8, 16, 20):
            spec = BasisSpec(2, L)
            ks = kernel_spec(2, L)
            u = random_points(2, 200, rng)
            v = random_points(2, 200, rng)
            double_sum = (basis_matrix(spec, u) * basis_matrix(spec, v)).sum(axis=1)
            jac = reproducing_kernel(ks, np.clip((u * v).sum(axis=1), -1, 1))
            diag = dim_pi(2, L) / sphere_measure(2)
            worst = max(worst, float(np.abs(double_sum - jac).max() / diag))
        return worst <= 1e-9, f"max relative deviation {worst:.3e} (tol 1e-9)"

    def c02_kernel_trace(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for d in (1, 2):
            for L in range(0, 21):
                ks = kernel_spec(d, L)
                trace = reproducing_kernel(ks, 1.0) * sphere_measure(d)
                worst = max(worst, abs(trace / dim_pi(d, L) - 1.0))
                spec = BasisSpec(d, L)
                u = random_points(d, 100, rng)
                sums = (basis_matrix(spec, u) ** 2).sum(axis=1) * sphere_measure(d)
                worst = max(worst, float(np.abs(sums / dim_pi(d, L) - 1.0).max()))
        return worst <= 1e-10, f"max relative trace deviation {worst:.3e} (tol 1e-10)"

    def c03_quadrature_exactness(self):
        worst = 0.0
        for d, Ls in ((2, (4, 8, 16)), (1, (32, 256))):
            for L in Ls:
                spec = BasisSpec(d, L)
                rule = build_quadrature(d, 2 * L)
                B = basis_matrix(spec, rule.nodes)
                G = B.T @ (rule.weights[:, None] * B)
                worst = max(worst, float(np.abs(G - np.eye(G.shape[0])).max()))
        return worst <= 1e-12, f"max Gram deviation from identity {worst:.3e} (tol 1e-12)"

    def c04_toeplitz_oracle(self):
        worst = 0.0
        for a in (0.3, 1.0, 2.0):
            for L in (16, 32, 64):
                rep = lambda_min(Arcs([[-a, a]]), Lebesgue(), L, d=1)
                worst = max(worst, abs(rep.lambda_min - _toeplitz_lambda_min(L, a)))
        return worst <= 1e-8, f"max |pencil - closed form| {worst:.3e} (tol 1e-8)"

    def c05_axisym_oracle(self):
        worst = 0.0
        for radius in (0.3, 0.8):
            for L in (8, 16):
                rep = lambda_min(cap_set(north_pole(2), radius), Lebesgue(), L, d=2)
                worst = max(worst, abs(rep.lambda_min - _axisym_lambda_min(L, radius)))
        return worst <= 1e-7, f"max |generic - blockwise| {worst:.3e} (tol 1e-7)"

    def c06_battery(self):
        msgs = []
        ok = True
        for d, L in ((1, 12), (2, 6)):
            lam_full = lambda_min(FullSphere(), Lebesgue(), L, d=d).lambda_min
            lam_empty = lambda_min(EmptySet(), Lebesgue(), L, d=d).lambda_min
            ok &= abs(lam_full - 1.0) <= 1e-9 and lam_empty <= 1e-12
            msgs.append(f"d={d}: full={lam_full:.12f} empty={lam_empty:.2e}")
        rng = np.random.default_rng(606)
        L = 6
        rule = build_quadrature(2, 2 * L, oversample=4.0, max_spacing=0.12)
        worst_gap = -math.inf
        for _ in range(20):
            k = int(rng.integers(2, 5))
            centers = random_points(2, k, rng)
            radii = rng.uniform(0.3, 0.8, size=k)
            extra = random_points(2, 2, rng)
            E = CapUnion(centers, radii)
            E2 = CapUnion(np.vstack([centers, extra]), np.concatenate([radii * 1.15, [0.4, 0.5]]))
            lam1 = lambda_min(E, Lebesgue(), L, rule=rule).lambda_min
            lam2 = lambda_min(E2, Lebesgue(), L, rule=rule).lambda_min
            worst_gap = max(worst_gap, lam1 - lam2)
        ok &= worst_gap <= 1e-9
        msgs.append(f"worst monotonicity violation {worst_gap:.2e} (tol 1e-9)")
        return ok, "; ".join(msgs)

    def c07_necessity_decay(self):
        _, rows = self._sweep("fixed-cap", CONFIG_FIXED_CAP)
        lam = {L: rows[(L, "eigen")].value for L in (8, 16, 32)}
        dl = {L: rows[(L, "harmonic")].value for L in (8, 16, 32)}
        dec = lam[32] < lam[16] < lam[8]
        ratio = lam[32] / lam[8] if lam[8] > 0 else math.inf
        harm = dl[32] <= dl[8] / 2
        ok = dec and ratio <= 0.2 and harm
        return ok, (
            f"lambda: {lam[8]:.3e} > {lam[16]:.3e} > {lam[32]:.3e} ({dec}), "
            f"ratio {ratio:.2e} <= 0.2; delta(32)={dl[32]:.4f} <= delta(8)/2={dl[8] / 2:.4f} ({harm})"
        )

    def c08_sufficiency_stability(self):
        _, rows = self._sweep("dense-net", CONFIG_DENSE_NET)
        lam = {L: rows[(L, "eigen")].value for L in (8, 16, 32)}
        rho = {L: rows[(L, "density")].value for L in (8, 16, 32)}
        dl = {L: rows[(L, "harmonic")].value for L in (8, 16, 32)}
        rho0 = rho[8]
        dens_ok = rho0 > 0 and all(rho[L] >= rho0 / 2 for L in (16, 32))
        lam_ok = lam[32] >= 0.5 * min(lam[8], lam[16])
        harm_ok = all(dl[L] >= dl[8] / 2 for L in (16, 32))
        ok = dens_ok and lam_ok and harm_ok
        return ok, (
            f"rho: {rho[8]:.4f}/{rho[16]:.4f}/{rho[32]:.4f} (ref rho0={rho0:.4f}, floor rho0/2), "
            f"lambda: {lam[8]:.4f}/{lam[16]:.4f}/{lam[32]:.4f} "
            f"(need lam(32) >= {0.5 * min(lam[8], lam[16]):.4f}), "
            f"delta: {dl[8]:.4f}/{dl[16]:.4f}/{dl[32]:.4f} (floor delta(8)/2)"
        )

    def c09_uncertainty(self):
        L = 16
        E = realize_family(parse_config(CONFIG_DENSE_NET).family, 2, L)
        spec = BasisSpec(2, L)
        rule = Sampling().rule(E, 2, 2 * L)
        rep = lambda_min(E, Lebesgue(), L, rule=rule)
        ratio = uncertainty_check(rep.witness, E, spec, rule)
        target = 1.0 / rep.lambda_min
        rel = abs(ratio - target) / target
        tail_only = uncertainty_check(np.zeros(basis_dim(spec)), E, spec, rule, tail_norm_sq=3.5)
        ok = rel <= 1e-6 and abs(tail_only - 1.0) <= 1e-12
        return ok, (
            f"witness ratio {ratio:.6f} vs 1/lambda {target:.6f} (rel dev {rel:.2e}, tol 1e-6); "
            f"pure-tail ratio {tail_only!r}"
        )

    def c10_szego_decay(self):
        thetas = np.linspace(math.pi / 4, 3 * math.pi / 4, 301)
        means = {}
        for L in (64, 128, 256):
            errs = []
            for th in thetas:
                approx = szego_estimate(L, 0.0, float(th))
                exact = float(jacobi_eval(L, 1.0, 0.0, math.cos(th)))
                norm = abs(exact - approx.main_term) * L * math.sin(th) * math.sqrt(L) / szego_envelope(0.0, float(th))
                errs.append(norm)
            means[L] = float(np.mean(errs))
        r1 = means[128] / means[64]
        r2 = means[256] / means[128]
        ok = r1 <= 1.5 and r2 <= 1.5
        return ok, f"normalized error means {means[64]:.3f}/{means[128]:.3f}/{means[256]:.3f}, ratios {r1:.3f}, {r2:.3f} (tol 1.5)"

    def c11_sup_norm(self):
        rh = rhinfty_check(PowerDistanceWeight(2.0, north_pole(2)), 2, seed=11)
        ok = rh.rhinfty[1] and math.isfinite(rh.rhinfty[0])
        msgs = [f"RH-inf C={rh.rhinfty[0]:.3f} pass={rh.rhinfty[1]}"]
        _, rows = self._sweep("sup-norm", CONFIG_SUP_NORM)
        for tag, name in (("plain", "supnorm"), ("weighted", "supnorm-weighted")):
            mins = {L: rows[(L, name)].value for L in (8, 16, 32)}
            good = all(mins[L] >= mins[8] / 2 for L in (16, 32))
            ok &= good
            msgs.append(f"{tag} mins {mins[8]:.4f}/{mins[16]:.4f}/{mins[32]:.4f} (floor {mins[8] / 2:.4f}: {good})")
        E_cap = cap_set(north_pole(2), math.pi / 3)
        grid = candidate_centers(2, 96)
        ratios = {}
        for ell in (1, 3):
            Q = peak_polynomial(2, 8, ell, south_pole(2))
            ratios[ell] = sup_norm_ratio(Q, E_cap, grid)
        decay = ratios[1] / ratios[3] if ratios[3] > 0 else math.inf
        ok &= decay >= 5.0
        msgs.append(f"peak decay ratio(l=1)/ratio(l=3) = {decay:.1f} (need >= 5)")
        return ok, "; ".join(msgs)

    def c12_regularization(self):
        # the regularize row takes delta = rho_hat(E)/2 and reports E*'s density at r/L over r/2L
        _, rows = self._sweep("regularization", CONFIG_REGULARIZATION)
        rho, star = rows[(16, "density")], rows[(16, "regularize")]
        ok = star.value >= rho.value / 2
        return ok, (
            f"rho_hat(E)={rho.value:.4f}, mixed-scale density of E*={star.value:.4f} "
            f">= rho/2={rho.value / 2:.4f} ({ok}); E*: {star.witness}"
        )

    def c13_determinism(self):
        same = True
        details = []
        for key, text in (("fixed-cap", CONFIG_FIXED_CAP), ("dense-net", CONFIG_DENSE_NET)):
            b1, b2 = self._rerun_bytes(key, text)
            match = b1 == b2
            same &= match
            details.append(f"{key}: {'byte-identical' if match else 'MISMATCH'} ({len(b1)} bytes)")
        return same, "; ".join(details)

    # -- driver -----------------------------------------------------------------

    def criteria(self):
        return [
            (1, "christoffel-darboux identity", self.c01_cd_identity),
            (2, "kernel trace and constancy", self.c02_kernel_trace),
            (3, "quadrature exactness", self.c03_quadrature_exactness),
            (4, "toeplitz oracle (d=1 arcs)", self.c04_toeplitz_oracle),
            (5, "axisymmetric oracle (d=2 cap)", self.c05_axisym_oracle),
            (6, "full/empty/monotone battery", self.c06_battery),
            (7, "necessity: fixed cap decays", self.c07_necessity_decay),
            (8, "sufficiency: dense family stabilizes", self.c08_sufficiency_stability),
            (9, "uncertainty ratio at the witness", self.c09_uncertainty),
            (10, "oscillatory estimate error decay", self.c10_szego_decay),
            (11, "sup-norm comparison", self.c11_sup_norm),
            (12, "good-cap regularization density", self.c12_regularization),
            (13, "determinism of sweep outputs", self.c13_determinism),
        ]

    def run_criterion(self, index: int) -> CriterionResult:
        table = {i: (name, fn) for i, name, fn in self.criteria()}
        if index not in table:
            raise ValueError(f"no criterion {index}")
        name, fn = table[index]
        t0 = time.perf_counter()
        try:
            passed, details = fn()
        except Exception as exc:  # report, never crash the suite
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        result = CriterionResult(index, name, passed, details, elapsed)
        if self.verbose:
            status = "PASS" if passed else "FAIL"
            print(f"[{index:2d}] {status} {name}: {details} ({elapsed:.1f}s)", flush=True)
        return result

    def run(self, indices=None) -> list[CriterionResult]:
        selected = indices or [i for i, _, _ in self.criteria()]
        results = [self.run_criterion(i) for i in selected]
        if self.verbose:
            n_fail = sum(not r.passed for r in results)
            total = sum(r.seconds for r in results)
            print(f"{len(results) - n_fail}/{len(results)} criteria passed in {total:.1f}s")
        return results
