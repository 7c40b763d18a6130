"""Experiment configuration: a single human-editable YAML document that fully
determines a sweep.  Rerunning the same config (same seed) reproduces every
number bit for bit; the canonical serialization is hashed into every result
row for traceability.

``FUNCTIONALS`` is the registry of what a sweep computes: one entry per
functional holds its parameter defaults, its parse-time checks, its compute
function and its ``spherenorms describe`` text.  Adding a functional means
adding one entry.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import yaml

from .basis import BasisSpec, basis_dim
from .concentration import lambda_min, sup_norm_ratios, worst_case_lp
from .errors import ConfigError
from .functionals import (ainfty_check, density_profile, doubling_constant, harmonic_infimum, regularize_set,
                          rhinfty_check)
from .geometry import candidate_centers
from .measures import Lebesgue, MeasureSpec, measure_from_dict, measure_to_dict, validate_measure
from .quadrature import Sampling
from .sets import CapUnion, SetFamily, family_from_dict, family_to_dict, min_feature_scale

__all__ = [
    "Functional",
    "FunctionalSpec",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "serialize_config",
    "config_hash",
    "FUNCTIONALS",
]

SCHEMA_VERSION = 1
# the YAML section holding each Sampling field
_SAMPLING_KEYS = {"quadrature": ("oversample", "spacing_factor", "max_nodes"),
                  "resolution": ("per_great_circle_factor",)}
_TOP_KEYS = ("schema", "d", "L_list", "seed", "label", "family", "measure", "functionals", *_SAMPLING_KEYS)


@dataclass(frozen=True)
class FunctionalSpec:
    name: str
    tag: str
    params: dict


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    L_list: tuple
    family: SetFamily
    measure: MeasureSpec
    functionals: tuple
    seed: int = 0
    label: str = ""
    sampling: Sampling = Sampling()
    schema: int = SCHEMA_VERSION


def _require(cond: bool, field_name: str, msg: str):
    if not cond:
        raise ConfigError(f"field {field_name!r}: {msg}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# -- the functional registry ----------------------------------------------------
#
# A compute function maps (cfg, E, L, params, rule), E being the family's set
# at degree L, to (value, witness string); ``rule(exact_degree=0, window=inf)``
# returns the degree's masked rule for that request, one object per node
# layout.  It reaches the library through this module's globals, so wrappers
# installed on those names see every call.

def _fmt_point(p: np.ndarray) -> str:
    return "(" + " ".join(f"{x:.6f}" for x in p) + ")"


def _eigen(cfg, E, L, params, rule):
    rep = lambda_min(E, cfg.measure, L, rule=rule(2 * L))
    wit = f"n_masked={rep.diagnostics.get('n_masked', 'na')};residual={rep.diagnostics['residual']:.3e}"
    if rep.lambda_min < rep.diagnostics["lambda_floor"]:
        wit += ";below_floor"
    return rep.lambda_min, wit


def _density(cfg, E, L, params, rule):
    r = float(params["r"])
    rep = density_profile(E, cfg.measure, L, r / L, r / L, rule=rule(window=r / L), sampling=cfg.sampling)
    return rep.rho_hat, f"argmin={_fmt_point(rep.argmin_center)}"


def _harmonic(cfg, E, L, params, rule):
    rep = harmonic_infimum(E, L, rule=rule(window=1.0 / L), sampling=cfg.sampling)
    return rep.delta_hat, f"argmin={_fmt_point(rep.argmin_center)}"


def _pnorm(cfg, E, L, params, rule):
    rep = worst_case_lp(
        E, cfg.measure, L, p=float(params["p"]), restarts=int(params["restarts"]), seed=cfg.seed,
        rule=rule(2 * L), d=cfg.d,
    )
    spread = max(rep.restarts) - min(rep.restarts)
    return rep.value, f"restarts={len(rep.restarts)};spread={spread:.3e};evals={rep.evals}"


def _supnorm(cfg, E, L, params, rule):
    spec = BasisSpec(cfg.d, L)
    rng = np.random.default_rng([cfg.seed, L])
    # the center grid, refined until it resolves E's smallest feature
    grid = candidate_centers(cfg.d, cfg.sampling.per_great_circle(L, window=min_feature_scale(E) / 2.0))
    C = rng.standard_normal((basis_dim(spec), int(params["samples"])))
    worst = float(sup_norm_ratios(C, E, grid, weight=params["weight"], spec=spec).min())
    return worst, f"samples={params['samples']};grid={grid.shape[0]}"


def _weights(cfg, E, L, params, rule):
    seed, n_caps = int(params["seed"]), int(params["n_caps"])
    drep = doubling_constant(cfg.measure, params["scales"], d=cfg.d, seed=seed)
    rrep = rhinfty_check(cfg.measure, cfg.d, seed=seed, n_caps=n_caps)
    arep = ainfty_check(cfg.measure, cfg.d, seed=seed, n_caps=n_caps)
    wit = (
        f"gamma={drep.doubling_exponent:.4f};rh_C={rrep.rhinfty[0]:.4f};"
        f"ainf_B={arep.ainfty[0]:.4f}@beta={arep.ainfty[1]}"
    )
    return drep.doubling_constant, wit


def _regularize(cfg, E, L, params, rule):
    eps, r, delta = float(params["eps"]), float(params["r"]), params["delta"]
    star = regularize_set(E, L, eps=eps, delta=(None if delta is None else float(delta)), d=cfg.d,
                          default_delta_r=r, sampling=cfg.sampling)
    rep = density_profile(star, Lebesgue(), L, num_radius=r / L, den_radius=r / (2 * L), d=cfg.d,
                          sampling=cfg.sampling)
    n_caps = star.centers.shape[0] if isinstance(star, CapUnion) else 0
    return rep.rho_hat, f"good_caps={n_caps};eps={eps}"


def _positive(x) -> bool:
    return x > 0


def _at_least_one(n) -> bool:
    return int(n) >= 1


def _weight_or_none(w) -> bool:
    return w is None or measure_from_dict(w) is not None


@dataclass(frozen=True)
class Functional:
    """One registry entry: parameter defaults, checks as (parameter, predicate,
    message) rows, ``compute(cfg, E, L, params, rule) -> (value, witness)``, the
    ``spherenorms describe`` text, and whether compute reads neither E nor L."""

    defaults: dict
    checks: tuple
    compute: Callable
    describe: str
    degree_free: bool = False


FUNCTIONALS = {
    "eigen": Functional({}, (), _eigen, """\
lambda_min: smallest eigenvalue of the pencil (G_E, G_full) on Pi_L,
G_X[i,j] = integral_X Y_i Y_j dmu.  The best constant C_2 in
integral |Q|^2 dmu <= C_2 integral_{E_L} |Q|^2 dmu is 1/lambda_min.
The witness ends in ';below_floor' when lambda_min is under its rounding floor."""),
    "density": Functional({"r": 2.0}, (("r", _positive, "must be positive"),), _density, """\
rho_hat: min over centers u of mu(E_L * B(u, r/L)) / mu(B(u, r/L)),
the local relative density at the 1/L scale."""),
    "harmonic": Functional({}, (), _harmonic, """\
delta_hat: min over |x| = 1 - 1/L of the Poisson integral
(1/sigma) integral_{E_L} (1-|x|^2)/|x-u|^(d+1) dsigma(u)."""),
    "pnorm": Functional(
        {"p": 2.0, "restarts": 6},
        (("p", lambda p: 1 <= p < math.inf, "must be finite and >= 1"),
         ("restarts", _at_least_one, "must be >= 1")),
        _pnorm, """\
best ratio found on the masked degree-2L rule (not a bound) for min over Q in Pi_L of
integral_{E_L} |Q|^p dmu / integral |Q|^p dmu (exact at p=2 via eigen)."""),
    "supnorm": Functional(
        {"samples": 50, "weight": None},
        (("samples", _at_least_one, "must be >= 1"), ("weight", _weight_or_none, "must be a measure")),
        _supnorm, """\
min over sampled Q of (sup_{grid * E_L} |Q| w) / (sup_grid |Q| w),
optionally with a bounded weight w."""),
    "weights": Functional(
        {"scales": [0.1, 0.2, 0.4], "n_caps": 12, "seed": 0},
        (("scales", lambda s: len(s) > 0 and all(0 < float(x) <= math.pi / 2 for x in s),
          "must be a nonempty list of radii in (0, pi/2]"),
         ("n_caps", _at_least_one, "must be >= 1")),
        _weights, """\
doubling constant sup mu(B(u,2t))/mu(B(u,t)) with fitted growth
exponent; reverse-Holder constant C (w <= C * cap averages); smallest
(B, beta) with w(B) <= B (sigma(B)/sigma(E))^beta w(E) over samples.""", degree_free=True),
    "regularize": Functional(
        {"eps": 0.5, "delta": None, "r": 2.0},
        (("eps", _positive, "must be positive"), ("r", _positive, "must be positive"),
         ("delta", lambda x: x is None or 0 < x <= 1, "must be unset or a fraction in (0, 1]")),
        _regularize, """\
good-cap regularization: union of net caps B(v, eps/L) holding at
least a delta fraction of E_L's surface measure; reports the
mixed-scale density min_u sigma(E* * B(u, r/L)) / sigma(B(u, r/2L))."""),
}


def _parse_functional(entry, index: int) -> FunctionalSpec:
    where = f"functionals[{index}]"
    if isinstance(entry, str):
        entry = {"name": entry}
    _require(isinstance(entry, dict), where, "must be a name or a mapping")
    name = entry.get("name")
    _require(name in FUNCTIONALS, f"{where}.name", f"unknown functional {name!r}")
    params = dict(FUNCTIONALS[name].defaults)
    for key, val in entry.items():
        if key in ("name", "tag"):
            continue
        _require(key in params, f"{where}.{key}", f"unknown parameter for {name}")
        params[key] = val
    for key, ok, msg in FUNCTIONALS[name].checks:
        try:
            good = ok(params[key])
        except (KeyError, TypeError, ValueError) as exc:
            good, msg = False, f"{msg} ({exc})"
        _require(good, f"{where}.{key}", msg)
    if params.get("weight") is not None:  # held as the measure it names
        params["weight"] = measure_from_dict(params["weight"])
    tag = entry.get("tag", name)
    return FunctionalSpec(name=name, tag=str(tag), params=params)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment config; raises ConfigError with the
    offending field on any problem."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    _require(isinstance(data, dict), "<document>", "must be a mapping")
    for key in data:
        _require(key in _TOP_KEYS, str(key), "unknown key")

    d = data.get("d")
    _require(_is_int(d) and d in (1, 2), "d", "must be 1 or 2")
    L_list = data.get("L_list")
    _require(
        isinstance(L_list, list) and L_list and all(_is_int(x) and x >= 1 for x in L_list),
        "L_list",
        "must be a nonempty list of integers >= 1",
    )
    _require("family" in data, "family", "missing")
    try:
        family = family_from_dict(data["family"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"field 'family': {exc}") from exc
    try:
        measure = measure_from_dict(data.get("measure", {"kind": "lebesgue"}))
        validate_measure(measure, d)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"field 'measure': {exc}") from exc

    raw_fn = data.get("functionals")
    _require(isinstance(raw_fn, list) and raw_fn, "functionals", "must be a nonempty list")
    functionals = tuple(_parse_functional(f, i) for i, f in enumerate(raw_fn))
    tags = [f.tag for f in functionals]
    _require(len(set(tags)) == len(tags), "functionals", "tags must be unique (set 'tag')")

    settings = {}
    for section, names in _SAMPLING_KEYS.items():
        raw = data.get(section, {})
        _require(isinstance(raw, dict), section, "must be a mapping")
        for key, value in raw.items():
            _require(key in names, f"{section}.{key}", "unknown key")
            try:
                settings[key] = Sampling.checked(key, value)
            except ValueError as exc:
                raise ConfigError(f"field '{section}.{key}': {exc}") from exc

    seed = data.get("seed", 0)
    _require(_is_int(seed), "seed", "must be an integer")
    label = str(data.get("label") or data["family"].get("label", "") or family.label)
    schema = data.get("schema", SCHEMA_VERSION)
    _require(_is_int(schema) and schema == SCHEMA_VERSION, "schema", f"supported schema version is {SCHEMA_VERSION}")

    return ExperimentConfig(
        d=d,
        L_list=tuple(L_list),
        family=family,
        measure=measure,
        functionals=functionals,
        seed=seed,
        label=label,
        sampling=Sampling(**settings),
        schema=schema,
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _config_dict(cfg: ExperimentConfig) -> dict:
    fns = []
    for f in cfg.functionals:
        entry = {"name": f.name, "tag": f.tag}
        entry.update({k: measure_to_dict(v) if k == "weight" else v for k, v in f.params.items() if v is not None})
        fns.append(entry)
    return {
        "schema": cfg.schema,
        "d": cfg.d,
        "L_list": list(cfg.L_list),
        "seed": cfg.seed,
        "label": cfg.label,
        "family": family_to_dict(cfg.family),
        "measure": measure_to_dict(cfg.measure),
        "functionals": fns,
        **{section: {key: getattr(cfg.sampling, key) for key in names} for section, names in _SAMPLING_KEYS.items()},
    }


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical YAML form; parse(serialize(parse(text))) is stable."""
    return yaml.safe_dump(_config_dict(cfg), sort_keys=True, default_flow_style=False)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:12]
