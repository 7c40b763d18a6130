"""Config parsing and validation, sweep determinism, CSV schema, plot data,
and the command-line interface."""

import functools
import inspect
import json
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import spherenorms as sn
import spherenorms.config as config_module
import spherenorms.measures as measures_module
import spherenorms.sets as sets_module
from spherenorms.acceptance import CONFIG_DENSE_NET, CONFIG_FIXED_CAP
from spherenorms.cli import main
from spherenorms.config import FUNCTIONALS, config_hash, load_config, parse_config, serialize_config
from spherenorms.errors import ConfigError
from spherenorms.quadrature import Sampling
from spherenorms.runner import _job, plotdata, read_results, run_experiment, write_results
from spherenorms.sets import realize_family

SMALL_CONFIG = """
schema: 1
d: 1
L_list: [4, 8]
seed: 7
label: two-arcs
family:
  kind: fixed
  set: {kind: arcs, intervals: [[-1.2, 1.2], [2.2, 3.0]]}
measure: {kind: lebesgue}
functionals:
  - {name: eigen}
  - {name: density, r: 2.0}
  - {name: harmonic}
"""


def test_parse_and_defaults():
    cfg = parse_config(SMALL_CONFIG)
    assert cfg.d == 1
    assert cfg.L_list == (4, 8)
    assert cfg.label == "two-arcs"
    assert cfg.sampling.oversample == 4.0
    assert [f.name for f in cfg.functionals] == ["eigen", "density", "harmonic"]
    assert cfg.functionals[1].params["r"] == 2.0


@pytest.mark.parametrize(
    "mutation, field",
    [
        ("d: 3", "d"),
        ("L_list: []", "L_list"),
        ("functionals: [{name: bogus}]", "functionals[0].name"),
        ("functionals: [{name: density, nope: 1}]", "functionals[0].nope"),
        ("functionals: [{name: density, r: -1.0}]", "functionals[0].r"),
        ("functionals: [{name: pnorm, p: .inf}]", "functionals[0].p"),
        ("functionals: [{name: regularize, r: -1}]", "functionals[0].r"),
        ("functionals: [{name: regularize, delta: 5.0}]", "functionals[0].delta"),
        ("functionals: [{name: weights, scales: [0.0, 3.0]}]", "functionals[0].scales"),
        ("functionals: [{name: weights, n_caps: 0}]", "functionals[0].n_caps"),
        # a weight on another sphere than the config's
        ("functionals: [{name: supnorm, weight: {kind: power_distance, exponent: 2.0, pole: [0, 0, 1]}}]",
         "functionals[0].weight"),
        ("functionals: [{name: supnorm, weight: {kind: band_weight, axis: [0, 0, 1], lo: 0.0, hi: 1.0, inside: 1.0,"
         " outside: 2.0}}]", "functionals[0].weight"),
        ("measure: {kind: band_weight, axis: [0, 0, 1], lo: 0.0, hi: 1.0, inside: 1.0, outside: 2.0}", "measure"),
        ("quadrature: {max_nodes: 0}", "quadrature.max_nodes"),
        ("schema: 99", "schema"),
    ],
)
def test_validation_errors_name_the_field(mutation, field):
    with pytest.raises(ConfigError) as err:
        parse_config(_mutated(mutation))
    assert field in str(err.value)


def _mutated(mutation: str) -> str:
    """SMALL_CONFIG with the top-level entry ``mutation`` sets (and its indented lines) replaced by it."""
    key = mutation.split(":")[0]
    lines, dropped = [], False
    for ln in SMALL_CONFIG.splitlines():
        if not ln.startswith(" "):
            dropped = ln.startswith(key)
        if not dropped:
            lines.append(ln)
    return "\n".join(lines) + "\n" + mutation


# a fixed family's set on another sphere than the config's, alone and through a complement
_OFF_SPHERE = [
    ("d: 1", "{kind: band, axis: [0, 0, 1], lo: 0.0, hi: 1.0}"),
    ("d: 1", "{kind: cap_union, centers: [[0, 0, 1]], radii: [0.5]}"),
    ("d: 2", "{kind: arcs, intervals: [[-1.0, 1.0]]}"),
]


@pytest.mark.parametrize("complement", [False, True], ids=["set", "complement"])
@pytest.mark.parametrize("d, spec", _OFF_SPHERE, ids=["band", "cap_union", "arcs"])
def test_family_set_is_checked_against_the_sphere(d, spec, complement):
    # refused at parse time, not mid-sweep
    spec = f"{{kind: complement, of: {spec}}}" if complement else spec
    text = _mutated(f"family: {{kind: fixed, set: {spec}}}").replace("d: 1\n", d + "\n")
    with pytest.raises(ConfigError, match=re.escape("field 'family'")) as err:
        parse_config(text)
    assert f"not on S^{d[-1]}" in str(err.value)


# (mutation, field the error names, key it names if the field does not)
_UNGUESSED = [
    ("sed: 5", "sed", None),
    ("quadrature: {spacing_factr: 5.0}", "quadrature.spacing_factr", None),
    ("resolution: {per_great_circle: 12}", "resolution.per_great_circle", None),
    ("quadrature: {oversample: four}", "quadrature.oversample", None),
    ("quadrature: {oversample: .inf}", "quadrature.oversample", None),
    ("quadrature: {max_nodes: true}", "quadrature.max_nodes", None),
    ("resolution: {per_great_circle_factor: 2.5}", "resolution.per_great_circle_factor", None),
    ("d: true", "d", None),
    ("L_list: [true]", "L_list", None),
    ("seed: true", "seed", None),
    ("seed: seven", "seed", None),
    # a fraction where a count is meant, a boolean or a word where a number is meant
    ("functionals: [{name: pnorm, restarts: 2.5}]", "functionals[0].restarts", None),
    ("functionals: [{name: pnorm, restarts: true}]", "functionals[0].restarts", None),
    ("functionals: [{name: supnorm, samples: true}]", "functionals[0].samples", None),
    ("functionals: [{name: weights, seed: abc}]", "functionals[0].seed", None),
    ("functionals: [{name: weights, n_caps: 3.7}]", "functionals[0].n_caps", None),
    ("functionals: [{name: weights, scales: [true, 0.2]}]", "functionals[0].scales", None),
    ("functionals: [{name: density, r: true}]", "functionals[0].r", None),
    ("functionals: [{name: regularize, delta: true}]", "functionals[0].delta", None),
    ("family: {kind: random_caps, count: 2.7, seed: 1, radius: 0.3}", "family", "count"),
    ("family: {kind: fixed, set: {kind: random_caps, d: 1, count: 2.7, radius: 0.3, seed: 1}}", "family", "count"),
    ("family: {kind: fixed, set: {kind: band, axis: [1, 0], lo: false, hi: 1.0}}", "family", "lo"),
    ("family: {kind: cap_net, cap_radius_over_L: .nan, net_spacing_over_L: 2.0}", "family", "cap_radius_over_L"),
    ("family: {kind: fixed, set: {kind: cap, center: [1, 0], radius: .nan}}", "family", "radius"),
    # directions off the unit sphere, NaN in an array's range check
    ("family: {kind: fixed, set: {kind: cap, center: [0, 2], radius: 0.5}}", "family", "center"),
    ("family: {kind: fixed, set: {kind: band, axis: [0, 3], lo: 0.0, hi: 1.0}}", "family", "axis"),
    ("measure: {kind: band_weight, axis: [0, 3], lo: 0.0, hi: 1.0, inside: 1.0, outside: 2.0}", "measure", "axis"),
    ("measure: {kind: power_distance, exponent: 2.0, pole: [.nan, 0]}", "measure", "pole"),
    ("family: {kind: fixed, set: {kind: cap_union, centers: [[1, 0]], radii: [.nan]}}", "family", "radii"),
    ("family: {kind: fixed, set: {kind: arcs, intervals: [[0.0, .nan]]}}", "family", "intervals"),
    # array entries: booleans and non-numbers, alone or in a list with numbers
    ("family: {kind: fixed, set: {kind: cap_union, centers: [[1, 0]], radii: [true]}}", "family", "radii"),
    ("family: {kind: fixed, set: {kind: cap_union, centers: [[1, 0], [0, 1]], radii: [true, 0.5]}}", "family", "radii"),
    ("family: {kind: fixed, set: {kind: cap_union, centers: [[1, 0]], radii: ['0.5']}}", "family", "radii"),
    ("family: {kind: fixed, set: {kind: cap_union, centers: [[false, 1]], radii: [0.5]}}", "family", "centers"),
    ("family: {kind: fixed, set: {kind: cap, center: [true, 0], radius: 0.5}}", "family", "center"),
    ("family: {kind: fixed, set: {kind: arcs, intervals: [['0', 1.0]]}}", "family", "intervals"),
    ("family: {kind: fixed, set: {kind: band, axis: [0, 0, true], lo: 0.0, hi: 1.0}}", "family", "axis"),
    ("measure: {kind: power_distance, exponent: 2.0, pole: [true, 0]}", "measure", "pole"),
    ("measure: {kind: band_weight, axis: [0, true], lo: 0.0, hi: 1.0, inside: 1.0, outside: 2.0}", "measure", "axis"),
    ("functionals: [{name: supnorm, weight: {kind: power_distance, exponent: 2.0, pole: [true, 0]}}]",
     "functionals[0].weight", "pole"),
]


@pytest.mark.parametrize("mutation, field, key", _UNGUESSED, ids=[f"{m}-{f}" for m, f, _ in _UNGUESSED])
def test_config_input_is_checked_not_guessed(mutation, field, key):
    # unknown keys, non-numbers, booleans and non-finite values are refused under their own key
    with pytest.raises(ConfigError, match=re.escape(f"field '{field}'")) as err:
        parse_config(_mutated(mutation))
    assert (key or field) in str(err.value)


ROOT = Path(__file__).resolve().parents[1]
PINNED_HASHES = {
    "dense_net_sweep": "60416521c812",
    "dense_net_to_64": "92d246df1d1e",
    "fixed_cap_decay": "a892c4f550a1",
    "weighted_arcs": "ca7f00b6a8c8",
    "weighted_sphere": "2045b03b1e26",
}


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.yaml")) + [ROOT / "perfbench" / "weighted_sphere.yaml"],
                         ids=lambda p: p.stem)
def test_shipped_configs_keep_their_canonical_form(path):
    # the config_hash column of every shipped sweep stays what it was recorded as
    cfg = load_config(path)
    assert config_hash(parse_config(serialize_config(cfg))) == config_hash(cfg)
    assert config_hash(cfg) == PINNED_HASHES[path.stem]


# ints where floats are meant: the spec constructors coerce them, so the
# canonical form (and the hash) is that of the same config written with floats
INT_VALUED_CONFIG = """
d: 2
L_list: [8]
family: {kind: fixed, set: {kind: complement, of: {kind: band, axis: [0, 0, 1], lo: 0, hi: 1}}}
measure: {kind: product, factors: [{kind: power_distance, exponent: 2, pole: [0, 0, 1]}, {kind: band_weight, axis: [1, 0, 0], lo: 0, hi: 2, inside: 1, outside: 3}]}
functionals: [eigen]
"""


@pytest.mark.parametrize("text, digest", [(CONFIG_DENSE_NET, "60416521c812"), (CONFIG_FIXED_CAP, "a892c4f550a1"),
                                          (INT_VALUED_CONFIG, "cb51cc98ef16")],
                         ids=["acceptance-dense-net", "acceptance-fixed-cap", "int-valued"])
def test_config_hash_pins(text, digest):
    cfg = parse_config(text)
    assert config_hash(cfg) == digest
    assert config_hash(parse_config(serialize_config(cfg))) == digest


SUPNORM_WEIGHT_CONFIG = """
d: 1
L_list: [4]
family: {kind: fixed, set: {kind: arcs, intervals: [[-1.2, 1.2]]}}
functionals: [{name: supnorm, weight: %s}]
"""


def test_supnorm_weight_spellings_share_one_hash():
    # the weight is written in its canonical form, as the config's own measure is
    ints = parse_config(SUPNORM_WEIGHT_CONFIG % "{kind: power_distance, exponent: 2, pole: [1, 0]}")
    floats = parse_config(SUPNORM_WEIGHT_CONFIG % "{kind: power_distance, exponent: 2.0, pole: [1.0, 0.0]}")
    assert serialize_config(ints) == serialize_config(floats)
    assert config_hash(ints) == config_hash(floats)
    assert config_hash(parse_config(serialize_config(ints))) == config_hash(ints)


def test_functional_number_spellings_share_one_hash():
    # a float parameter written as an int is stored, written and hashed as the float
    text = SUPNORM_WEIGHT_CONFIG.replace("[{name: supnorm, weight: %s}]",
                                         "[{name: density, r: %s}, {name: pnorm, p: %s}, {name: regularize, eps: %s}]")
    ints, floats = parse_config(text % ("2", "4", "1")), parse_config(text % ("2.0", "4.0", "1.0"))
    assert serialize_config(ints) == serialize_config(floats)
    assert config_hash(ints) == config_hash(floats)


_BAND = "{kind: band, axis: [0, 0, 1], lo: 0.0, hi: 1.0}"
_SPEC_TEXT = """
d: 2
L_list: [4]
family: %s
measure: %s
functionals: [%s]
"""


@pytest.mark.parametrize(
    "family, measure, functional, section, key",
    [
        ("{kind: cap_net, cap_radius_over_L: 0.5, net_spacing_over_L: 2.0, cap_radius_over_l: 0.4}", "{kind: lebesgue}",
         "eigen", "family", "cap_radius_over_l"),
        ("{kind: fixed, set: {kind: band, axis: [0, 0, 1], lo: 0.0, hi: 1.0, hii: 2.0}}", "{kind: lebesgue}",
         "eigen", "family", "hii"),
        ("{kind: fixed, set: {kind: complement, of: {kind: band, axis: [0, 0, 1], lo: 0.0, hi: 1.0, radius: 0.3}}}",
         "{kind: lebesgue}", "eigen", "family", "radius"),
        ("{kind: fixed, set: {kind: cap, center: [0, 0, 1], radius: 0.5, radii: 0.4}}", "{kind: lebesgue}",
         "eigen", "family", "radii"),
        ("{kind: fixed, set: {kind: random_caps, d: 2, count: 4, radius: 0.3, seed: 1, radius_over_L: 1.0}}",
         "{kind: lebesgue}", "eigen", "family", "radius_over_L"),
        ("{kind: fixed, set: %s}" % _BAND, "{kind: power_distance, exponent: 2.0, pole: [0, 0, 1], exponant: -5}",
         "eigen", "measure", "exponant"),
        ("{kind: fixed, set: %s}" % _BAND, "{kind: product, factors: [{kind: lebesgue, exponent: 2.0}]}",
         "eigen", "measure", "exponent"),
        ("{kind: fixed, set: %s}" % _BAND, "{kind: lebesgue}",
         "{name: supnorm, weight: {kind: band_weight, axis: [0, 0, 1], lo: 0.0, hi: 1.0, inside: 1.0, outside: 2.0,"
         " insde: 3.0}}", "functionals[0].weight", "insde"),
    ],
    ids=["cap_net", "band", "complement-of", "cap-alias", "random_caps-alias", "measure", "product-factor",
         "supnorm-weight"],
)
def test_unknown_spec_keys_are_refused(family, measure, functional, section, key):
    # a misspelt key under family:, measure: or a weight: would otherwise be
    # dropped, and the run would use the default it meant to override
    with pytest.raises(ConfigError, match=re.escape(f"field '{section}'")) as err:
        parse_config(_SPEC_TEXT % (family, measure, functional))
    assert repr(key) in str(err.value)
    assert "unexpected keyword" not in str(err.value)


# one valid spec per kind with scalar fields; the guard below sets each of those fields to true
_SCALAR_SPECS = {
    "family": [{"kind": "cap_net", "cap_radius_over_L": 0.5, "net_spacing_over_L": 2.0},
               {"kind": "random_caps", "count": 4, "seed": 1, "radius": 0.3},
               {"kind": "random_caps", "count": 4, "seed": 1, "radius_over_L": 1.0}],
    "set": [{"kind": "band", "axis": [1, 0], "lo": 0.0, "hi": 1.0}, {"kind": "cap", "center": [1, 0], "radius": 0.5},
            {"kind": "random_caps", "d": 1, "count": 4, "radius": 0.3, "seed": 1}],
    "measure": [{"kind": "power_distance", "exponent": 2.0, "pole": [1, 0]},
                {"kind": "band_weight", "axis": [1, 0], "lo": 0.0, "hi": 1.0, "inside": 1.0, "outside": 2.0}],
}
_SPEC_KINDS = {"family": sets_module._FAMILY_KINDS, "set": sets_module._SET_KINDS,
               "measure": measures_module._MEASURE_KINDS}
# where a spec of each section goes in a config
_SPEC_AT = {"family": lambda spec: {"family": spec}, "set": lambda spec: {"family": {"kind": "fixed", "set": spec}},
            "measure": lambda spec: {"measure": spec}}
_SCALAR_BASE = {"d": 1, "L_list": [4], "family": {"kind": "fixed", "set": {"kind": "arcs", "intervals": [[-1.2, 1.2]]}},
                "functionals": ["eigen"]}


def _scalar_params(make) -> set:
    """Names of the int and float fields of a spec class, or parameters of a spec constructor."""
    if is_dataclass(make):
        return {f.name for f in fields(make) if f.type in ("int", "float", "float | None")}
    return {p.name for p in inspect.signature(make).parameters.values() if p.annotation in ("int", "float")}


def _scalar_cases() -> list:
    """(config with one scalar set to true, field the error names, key it names) for every
    scalar a config can set; the config is JSON, which YAML reads."""
    cases = {key: (key, {key: [True] if key == "L_list" else True}, key) for key in ("d", "L_list", "seed", "schema")}
    cases.update({f"{section}.{key}": (f"{section}.{key}", {section: {key: True}}, key)
                  for section, keys in config_module._SAMPLING_KEYS.items() for key in keys})
    cases.update({f"{name}.{key}": (f"functionals[0].{key}", {"functionals": [{"name": name, key: True}]}, key)
                  for name, entry in FUNCTIONALS.items() for key in entry.defaults})
    for section, specs in _SCALAR_SPECS.items():
        for spec in specs:
            for key in _scalar_params(_SPEC_KINDS[section][spec["kind"]]) & set(spec):
                cases.setdefault(f"{section}.{spec['kind']}.{key}", (
                    "measure" if section == "measure" else "family", _SPEC_AT[section]({**spec, key: True}), key))
    return [pytest.param(json.dumps({**_SCALAR_BASE, **entries}), field, key, id=case_id)
            for case_id, (field, entries, key) in sorted(cases.items())]


def test_scalar_guard_lists_every_scalar():
    # a scalar field or parameter added without a case here (and so without the check) fails the suite
    covered = {(section, spec["kind"], key) for section, specs in _SCALAR_SPECS.items() for spec in specs
               for key in spec if key != "kind"}
    every = {(section, kind, key) for section, kinds in _SPEC_KINDS.items() for kind, make in kinds.items()
             for key in _scalar_params(make)}
    assert every <= covered
    for section, specs in _SCALAR_SPECS.items():  # so that only the true is refused
        for spec in specs:
            parse_config(json.dumps({**_SCALAR_BASE, **_SPEC_AT[section](spec)}))
    assert {f.name for f in fields(Sampling)} == {k for keys in config_module._SAMPLING_KEYS.values() for k in keys}
    assert all({key for key, _, _ in entry.checks} == set(entry.defaults) for entry in FUNCTIONALS.values())


@pytest.mark.parametrize("text, field, key", _scalar_cases())
def test_every_scalar_refuses_a_boolean(text, field, key):
    with pytest.raises(ConfigError, match=re.escape(f"field '{field}'")) as err:
        parse_config(text)
    assert key in str(err.value)


REGISTRY_CONFIG = """
d: 1
L_list: [4]
seed: 3
family: {kind: fixed, set: {kind: arcs, intervals: [[-1.2, 1.2], [2.0, 3.4]]}}
measure: {kind: power_distance, exponent: 2.0, pole: [1.0, 0.0]}
functionals: [{name: %s}]
"""


@pytest.mark.parametrize("name", list(FUNCTIONALS))
def test_registry_entry_runs_with_defaults(name, capsys):
    cfg = parse_config(REGISTRY_CONFIG % name)
    assert cfg.functionals[0].params == FUNCTIONALS[name].defaults
    (row,) = _job(cfg, config_hash(cfg), 4, [0])
    assert row.functional == name and row.L == 4
    assert math.isfinite(row.value) and row.witness
    assert main(["describe"]) == 0
    assert f"  {name} " in capsys.readouterr().out


def test_spacing_factor_changes_rule_sized_values(tmp_path):
    text = """
d: 1
L_list: [4]
family: {kind: fixed, set: {kind: arcs, intervals: [[-1.2, 1.2], [1.6, 3.0], [3.4, 4.8]]}}
functionals: [{name: density, r: 1.5}, harmonic]
"""
    _, _, base = run_experiment(parse_config(text), tmp_path / "base")
    _, _, fine = run_experiment(parse_config(text + "quadrature: {spacing_factor: 5.0}\n"), tmp_path / "fine")
    base = {r.functional: r.value for r in base}
    fine = {r.functional: r.value for r in fine}
    assert fine["density"] != base["density"]
    assert fine["harmonic"] != base["harmonic"]


def test_yaml_error_reported():
    with pytest.raises(ConfigError):
        parse_config("d: [unclosed")


def test_round_trip_idempotent():
    cfg = parse_config(SMALL_CONFIG)
    text1 = serialize_config(cfg)
    text2 = serialize_config(parse_config(text1))
    assert text1 == text2
    assert config_hash(parse_config(text1)) == config_hash(cfg)


def test_hash_tracks_content():
    cfg = parse_config(SMALL_CONFIG)
    other = parse_config(SMALL_CONFIG.replace("seed: 7", "seed: 8"))
    assert config_hash(cfg) != config_hash(other)


def test_run_experiment_deterministic(tmp_path):
    cfg = parse_config(SMALL_CONFIG)
    res1, tim1, rows = run_experiment(cfg, tmp_path / "a")
    res2, _, _ = run_experiment(cfg, tmp_path / "b")
    assert res1.read_bytes() == res2.read_bytes()
    assert len(rows) == 6
    parsed = read_results(res1)
    assert {r["functional"] for r in parsed} == {"eigen", "density", "harmonic"}
    assert all(r["config_hash"] == config_hash(cfg) for r in parsed)
    # timings live in the sidecar, not the results file
    assert "wall_time_s" in tim1.read_text().splitlines()[0]
    assert "wall_time_s" not in res1.read_text().splitlines()[0]


def test_degree_free_functional_runs_once_per_sweep(monkeypatch, tmp_path):
    text = """
d: 1
L_list: [4, 8, 12]
family: {kind: fixed, set: {kind: arcs, intervals: [[-1.2, 1.2], [2.0, 3.4]]}}
measure: {kind: power_distance, exponent: 2.0, pole: [1.0, 0.0]}
functionals: [eigen, {name: weights, n_caps: 4}]
"""
    cfg = parse_config(text)
    calls = []
    for name in ("doubling_constant", "rhinfty_check", "ainfty_check"):
        def counted(*args, _real=getattr(config_module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(config_module, name, counted)
    res, tim, rows = run_experiment(cfg, tmp_path / "sweep")
    assert sorted(calls) == ["ainfty_check", "doubling_constant", "rhinfty_check"]
    assert [(r.L, r.functional) for r in rows] == [(L, f) for L in (4, 8, 12) for f in ("eigen", "weights")]
    assert [r.wall_time_s == 0.0 for r in rows if r.functional == "weights"] == [False, True, True]
    # the same bytes as running the weights job at every degree
    per_degree = [row for L in cfg.L_list for row in _job(cfg, config_hash(cfg), L, [0, 1])]
    write_results(per_degree, tmp_path / "per_degree.csv")
    assert res.read_bytes() == (tmp_path / "per_degree.csv").read_bytes()


def test_run_experiment_worker_pool_identical(tmp_path):
    cfg = parse_config(SMALL_CONFIG)
    res1, _, _ = run_experiment(cfg, tmp_path / "serial", workers=1)
    res2, _, _ = run_experiment(cfg, tmp_path / "pool", workers=2)
    assert res1.read_bytes() == res2.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiment_verbose_prints_every_row(tmp_path, capsys, workers):
    cfg = parse_config(SMALL_CONFIG)
    _, _, rows = run_experiment(cfg, tmp_path, workers=workers, verbose=True)
    # one progress line per job row, from the pool as from the serial loop
    lines = capsys.readouterr().out.splitlines()
    printed = [re.fullmatch(r"  L=\s*(\d+) (\S+)\s+value=(\S+) \(\d+\.\ds\)", line).groups() for line in lines]
    assert sorted(printed) == sorted((str(r.L), r.functional, repr(r.value)) for r in rows)


def test_plotdata_two_series(tmp_path):
    cfg1 = parse_config(SMALL_CONFIG)
    cfg2 = parse_config(SMALL_CONFIG.replace("[[-1.2, 1.2], [2.2, 3.0]]", "[[-0.4, 0.4]]"))
    res1, _, _ = run_experiment(cfg1, tmp_path / "one")
    res2, _, _ = run_experiment(cfg2, tmp_path / "two")
    out = plotdata([res1, res2], "eigen", tmp_path / "plot.csv", labels=["wide", "narrow"])
    lines = out.read_text().splitlines()
    assert lines[0] == "L,wide,narrow"
    assert len(lines) == 3
    with pytest.raises(ValueError):
        plotdata([res1], "nonexistent", tmp_path / "x.csv")


def test_plotdata_schema_mismatch(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValueError):
        read_results(bad)


def test_cli_run_and_plotdata(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(SMALL_CONFIG)
    code = main(["run", str(cfg_path), "-o", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "results.csv").exists()
    code = main([
        "plotdata", str(tmp_path / "out" / "results.csv"),
        "--kind", "eigen", "-o", str(tmp_path / "eigen.csv"), "--labels", "arcs",
    ])
    assert code == 0
    assert (tmp_path / "eigen.csv").read_text().startswith("L,arcs")


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(SMALL_CONFIG)
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "o1"), "--seed", "99"]) == 0
    h1 = read_results(tmp_path / "o1" / "results.csv")[0]["config_hash"]
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "o2")]) == 0
    h2 = read_results(tmp_path / "o2" / "results.csv")[0]["config_hash"]
    assert h1 != h2


def test_cli_bad_config_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text("d: 7\n")
    assert main(["run", str(cfg_path)]) == 1


@pytest.mark.parametrize("config, message", [
    ("""
d: 1
L_list: [4]
family: {kind: fixed, set: {kind: arcs, intervals: [[-1.0, 1.0]]}}
measure: {kind: band_weight, axis: [1.0, 0.0], lo: 0.0, hi: 1.0, inside: 0.0, outside: 0.0}
functionals: [eigen]
""", "full-sphere Gram is numerically singular"),
    ("""
d: 1
L_list: [1]
family: {kind: fixed, set: {kind: arcs, intervals: [[-1.0, 1.0]]}}
functionals: [{name: regularize, eps: 4.0}]
""", "net spacing 4.0 out of range"),
    ("""
d: 1
L_list: [4]
family: {kind: fixed, set: {kind: empty}}
functionals: [supnorm]
""", "no evaluation node lies inside the set"),
], ids=["degenerate-measure", "net-construction", "empty-intersection"])
def test_cli_numerical_errors_exit_without_traceback(config, message, tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(config)
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_cli_resource_guard_exit_code(tmp_path):
    cfg_path = tmp_path / "huge.yaml"
    cfg_path.write_text(
        """
d: 2
L_list: [200]
family: {kind: fixed, set: {kind: full}}
functionals: [{name: eigen}]
"""
    )
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 2
    # d=1 under a weight: 400,400 nodes x dim Pi_500 = 1001 plus 16 x 1001^2 pass the 4e8-entry budget
    cfg_path.write_text(
        """
d: 1
L_list: [500]
family: {kind: fixed, set: {kind: arcs, intervals: [[-1.0, 1.0]]}}
measure: {kind: power_distance, exponent: 2.0, pole: [1.0, 0.0]}
functionals: [{name: eigen}]
quadrature: {oversample: 400}
"""
    )
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("config, L, flagged", [
    (CONFIG_FIXED_CAP, 16, True),
    (CONFIG_FIXED_CAP, 8, False),
    (CONFIG_DENSE_NET, 8, False),
    # d=1 arc rule: a nonnegative lambda_min far under the floor
    ("d: 1\nL_list: [16]\nfamily: {kind: fixed, set: {kind: arcs, intervals: [[-0.1, 0.1]]}}\nfunctionals: [eigen]\n",
     16, True),
], ids=["fixed-cap-16", "fixed-cap-8", "dense-net-8", "arc-16"])
def test_eigen_witness_flags_values_below_floor(config, L, flagged):
    cfg = parse_config(config)
    E = realize_family(cfg.family, cfg.d, L)
    value, witness = FUNCTIONALS["eigen"].compute(cfg, E, L, {}, functools.partial(cfg.sampling.rule, E, cfg.d))
    assert witness.endswith(";below_floor") == flagged
    if cfg.d == 1:
        assert value >= 0.0


def test_density_window_below_the_grid_spacing_refines_the_grid():
    # r/L = 0.125 is below the 6L grid's spacing 2 pi / 48 = 0.1309
    cfg = parse_config(CONFIG_DENSE_NET)
    E = realize_family(cfg.family, 2, 8)
    value, _ = FUNCTIONALS["density"].compute(cfg, E, 8, {"r": 1.0}, functools.partial(cfg.sampling.rule, E, 2))
    assert value == sn.relative_density(E, sn.Lebesgue(), 8, r=1.0, d=2).rho_hat
    assert value == pytest.approx(0.018131849579546624, rel=1e-12)


def test_regularize_follows_the_grid_factor():
    # both density scans of the regularize job take per_great_circle_factor * L
    E = realize_family(parse_config(CONFIG_DENSE_NET).family, 2, 8)
    params = dict(FUNCTIONALS["regularize"].defaults)
    values = {}
    for factor in (6, 12):
        cfg = parse_config(CONFIG_DENSE_NET + f"resolution: {{per_great_circle_factor: {factor}}}\n")
        values[factor] = FUNCTIONALS["regularize"].compute(cfg, E, 8, params, functools.partial(cfg.sampling.rule, E, 2))[0]
    assert values[6] == pytest.approx(3.4071095139954233, rel=1e-12)
    assert values[12] == pytest.approx(3.431411058766765, rel=1e-12)


@pytest.mark.parametrize("name", ["eigen", "density", "harmonic", "pnorm", "regularize"])
def test_max_nodes_guards_every_rule(name, tmp_path):
    # every functional that builds a global rule honours quadrature.max_nodes
    # (supnorm and weights build none)
    cfg_path = tmp_path / "capped.yaml"
    cfg_path.write_text(REGISTRY_CONFIG % name + "quadrature: {max_nodes: 10}\n")
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 2


def test_cli_describe(capsys):
    assert main(["describe"]) == 0
    out = capsys.readouterr().out
    assert "lambda_min" in out
    assert "density" in out


def test_cli_verify_single_cheap_criterion(tmp_path):
    assert main(["verify", "--criteria", "2", "-o", str(tmp_path / "ver")]) == 0


def test_corrupted_kernel_normalization_detected():
    # doubling kappa must break the basis-sum identity by a detectable margin
    ks = sn.kernel_spec(2, 8)
    bad = sn.KernelSpec(2, 8, ks.kappa * 2.0)
    rng = np.random.default_rng(1)
    u = sn.random_points(2, 50, rng)
    v = sn.random_points(2, 50, rng)
    spec = sn.BasisSpec(2, 8)
    lhs = (sn.basis_matrix(spec, u) * sn.basis_matrix(spec, v)).sum(axis=1)
    rhs = sn.reproducing_kernel(bad, np.clip((u * v).sum(axis=1), -1, 1))
    scale = sn.dim_pi(2, 8) / (4 * math.pi)
    assert np.abs(lhs - rhs).max() / scale > 1e-9


def test_random_caps_family_config_round_trip():
    text = """
d: 2
L_list: [4]
family: {kind: random_caps, count: 8, seed: 3, radius_over_L: 1.0}
functionals: [{name: eigen}]
"""
    cfg = parse_config(text)
    assert serialize_config(parse_config(serialize_config(cfg))) == serialize_config(cfg)
