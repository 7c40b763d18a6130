"""Sweep benchmark for spherenorms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole sweeps of one workload through ``runner.run_experiment`` (the
path ``spherenorms run`` takes) with one worker and one pinned BLAS thread,
back to back in a fresh interpreter, for S seconds (at least two sweeps), and
times set-up in further fresh interpreters.  Every sweep's results.csv is
checked against perfbench/reference.json.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends half of S on untraced sweeps and
half on traced ones (at least two) and reports the per-layer metrics.
``sweep_s``, ``setup_s`` and ``tracing_overhead_s`` are wall times scaled to
a reference host speed by a calibration timed next to each sample (see
``host_scaled``); the unscaled medians are printed and kept in result.json.
``--workload all`` runs every workload in turn.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0:
all outputs correct; 1: some job raised or failed the output check; 2: the
benchmark could not run (no result is printed).  Outputs go to
.perfbench_out/ in the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from calibrate import Calibrator
from tracer import SPAN_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SWEEPS = 2
SETUP_SAMPLES = 7
# Median time of calibrate.calibrate() on the 2-CPU Xeon the baselines in
# perfbench/README.md come from.  Timings are reported scaled to that host speed.
CALIB_REF_S = 0.14
SAMPLE_TIMEOUT_S = 170

# Half-factor eigenvalues are resolved only to about sigma = 1e-15 (lambda = sigma^2
# ~ 1e-30); below that, values move with the BLAS thread count and are counted,
# not compared digit by digit.
SUBFLOOR_LAMBDA = 1e-30
SIGMA_ATOL = 1e-14
RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the repository root
    why: str
    L_list: tuple | None = None  # overrides the config's degrees
    variants: int = 1  # --seed % variants becomes the config seed when > 1


WORKLOADS = {
    "dense-net": Workload(
        "configs/dense_net_sweep.yaml",
        "density scan, harmonic scan and the masked QR all do heavy work (criterion 8 sweep at L=8,12)",
        L_list=(8, 12),
    ),
    "fixed-cap": Workload(
        "configs/fixed_cap_decay.yaml",
        "no density job and only a small QR plus a 625^2 SVD; harmonic scan dominates (criterion 7 sweep at L=8,16,24)",
        L_list=(8, 16, 24),
    ),
    "weighted-arcs": Workload(
        "configs/weighted_arcs.yaml",
        "d=1, all functionals, weighted: weight checks, L-BFGS and per-job runner overhead dominate",
        variants=4,
    ),
    "weighted-sphere": Workload(
        "perfbench/weighted_sphere.yaml",
        "d=2 weighted: the p=4 adversary on S^2 dominates, and the weighted full-sphere factor runs",
    ),
}

END_TO_END_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "job_ok_ratio": "ratio"}
PER_LAYER_UNITS = {
    **{name: "s" if name.endswith("_s") else "count" for name in SPAN_METRICS},
    "runner.job_s": "s",
    "runner.overhead_s": "s",
    "concentration.subfloor_values": "count",
    "tracing_overhead_s": "s",
}
COUNT_METRICS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count" and name in SPAN_METRICS]


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- inputs --------------------------------------------------------------------

def workload_config(wl: Workload, variant: int) -> tuple[str, dict, int]:
    """Config text for one input variant, the functional name of each result
    tag, and the number of jobs in one sweep."""
    path = ROOT / wl.config
    if not path.is_file():
        raise BenchError(f"missing workload config {wl.config}")
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    if wl.L_list is not None:
        data["L_list"] = list(wl.L_list)
    if wl.variants > 1:
        data["seed"] = variant
    kinds = {}
    for entry in data["functionals"]:
        entry = {"name": entry} if isinstance(entry, str) else entry
        kinds[str(entry.get("tag", entry["name"]))] = entry["name"]
    return yaml.safe_dump(data, sort_keys=False), kinds, len(data["L_list"]) * len(kinds)


# -- samples -------------------------------------------------------------------

def sample(config: Path, out_dir: Path, *flags: str) -> dict:
    """Run perfbench/sweep.py in a fresh interpreter and return its JSON record."""
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(BENCH / "sweep.py"), str(config), str(out_dir), *flags]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample process exceeded {SAMPLE_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"sample process failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_values(results_csv: Path) -> dict:
    with open(results_csv, newline="", encoding="utf-8") as fh:
        return {f"{row['L']}/{row['functional']}": float(row["value"]) for row in csv.DictReader(fh)}


def value_ok(kind: str, got: float, want: float) -> bool:
    if got == want:
        return True
    if kind == "eigen":
        # compare sigma = sqrt(lambda), which the half-factor SVD resolves to absolute SIGMA_ATOL
        s_got = math.copysign(math.sqrt(abs(got)), got)
        s_want = math.copysign(math.sqrt(abs(want)), want)
        return abs(s_got - s_want) <= RTOL * abs(s_want) + SIGMA_ATOL
    if kind == "pnorm":
        # a local minimum of a non-convex search whose path moves with rounding
        # (3x apart between 1 and 2 BLAS threads): same decade, inside (0, 1]
        return 0.0 < got <= 1.0 and want > 0.0 and abs(math.log10(got / want)) <= 1.0
    return abs(got - want) <= RTOL * abs(want)


def failed_keys(values: dict, expected: dict, kinds: dict) -> list[str]:
    """Result keys that are missing, unexpected, or differ from the reference."""
    bad = sorted(set(values) ^ set(expected))
    for key in sorted(set(values) & set(expected)):
        if not value_ok(kinds[key.split("/", 1)[1]], values[key], expected[key]):
            bad.append(key)
    return bad


def subfloor_count(values: dict, kinds: dict) -> int:
    return sum(
        1 for key, v in values.items()
        if kinds.get(key.split("/", 1)[1]) == "eigen" and abs(v) < SUBFLOOR_LAMBDA
    )


# -- environment -----------------------------------------------------------------

def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(child_env: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        **child_env,
        "pinned_env": PINNED_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


# -- one workload ------------------------------------------------------------------

def _median(key: str, rows: list[dict]) -> float:
    return statistics.median(r[key] for r in rows)


def host_scaled(rows: list[dict], key: str) -> float:
    """Median of ``key`` over rows, each scaled by CALIB_REF_S over the
    calibration timed with it: the wall time on a host running at the
    reference speed.  This takes out the shared host's drift in speed."""
    return statistics.median(r[key] * CALIB_REF_S / r["calib_s"] for r in rows)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    variant = seed % wl.variants
    if not (ROOT / "src" / "spherenorms").is_dir():
        raise BenchError("no src/spherenorms next to perfbench/")
    if not REFERENCE.is_file():
        raise BenchError("missing perfbench/reference.json")
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][name][str(variant)]
    text, kinds, n_jobs = workload_config(wl, variant)

    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out / "config.yaml"
    config.write_text(text, encoding="utf-8")
    # untimed: compiles bytecode and warms the file cache; reports the environment
    env = environment(sample(config, out / "warmup", "--setup-only")["env"])
    setups = []
    with Calibrator({**os.environ, **PINNED_ENV}) as calibrate:
        calib_s = calibrate()
        for _ in range(SETUP_SAMPLES):
            setup_s = sample(config, out / "setup", "--setup-only")["setup_s"]
            after_s = calibrate()
            setups.append({"setup_s": setup_s, "calib_s": (calib_s + after_s) / 2})
            calib_s = after_s
    if trace:
        runs = {
            "plain": sample(config, out / "plain", "--seconds", str(seconds / 2)),
            "traced": sample(config, out / "traced", "--trace", "--seconds", str(seconds / 2), "--min-sweeps", "2"),
        }
    else:
        runs = {"plain": sample(config, out / "plain", "--seconds", str(seconds), "--min-sweeps", str(MIN_SWEEPS))}
    sweeps = [{**sweep, "kind": kind} for kind, rec in runs.items() for sweep in rec["sweeps"]]

    problems = []
    attempted = failed = 0
    values = {}
    for i, s in enumerate(sweeps):
        attempted += n_jobs
        if "error" in s:
            failed += n_jobs
            problems.append(f"sweep {i} raised:\n{s['error']}")
            continue
        values = read_values(Path(s["dir"]) / "results.csv")
        bad = failed_keys(values, expected, kinds)
        failed += min(len(bad), n_jobs)
        problems += [f"sweep {i}: {key} = {values.get(key)!r}, reference {expected.get(key)!r}" for key in bad]

    plain = [s for s in sweeps if s["kind"] == "plain" and "error" not in s]
    traced = [s for s in sweeps if s["kind"] == "traced" and "error" not in s]
    if trace:
        counts = [{k: s["layers"][k] for k in COUNT_METRICS} for s in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append(f"work counts differ between traced sweeps: {counts}")
        metrics = {}
        if plain and traced:
            layers = [s["layers"] for s in traced]
            metrics = {k: _median(k, layers) for k in SPAN_METRICS if k not in counts[0]}
            metrics.update(counts[0])
            metrics["runner.job_s"] = _median("job_s", plain)
            metrics["runner.overhead_s"] = statistics.median(s["sweep_s"] - s["job_s"] for s in plain)
            metrics["concentration.subfloor_values"] = subfloor_count(values, kinds)
            metrics["tracing_overhead_s"] = host_scaled(traced, "sweep_s") - host_scaled(plain, "sweep_s")
        units = PER_LAYER_UNITS
    else:
        metrics = {}
        if plain:
            metrics = {
                "sweep_s": host_scaled(plain, "sweep_s"),
                "setup_s": host_scaled(setups, "setup_s"),
                "peak_rss_mb": runs["plain"]["peak_rss_mb"],
                "job_ok_ratio": (attempted - failed) / attempted,
            }
        units = END_TO_END_UNITS
    result = {
        "workload": name,
        "seed": seed,
        "variant": variant,
        "trace": int(trace),
        "environment": env,
        "sweeps": [{k: v for k, v in s.items() if k != "layers"} for s in sweeps],
        "setup_samples": setups,
        "wall_sweep_s": _median("sweep_s", plain) if plain else None,
        "wall_setup_s": _median("setup_s", setups),
        "calib_s": statistics.median(s["calib_s"] for s in plain) if plain else None,
        "subfloor_values": subfloor_count(values, kinds),
        "problems": problems,
        "correct": not problems and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    (out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict) -> None:
    print(f"env {json.dumps(result['environment'], sort_keys=True)}")
    n_plain = sum(s["kind"] == "plain" for s in result["sweeps"])
    print(
        f"workload {result['workload']} seed={result['seed']} variant={result['variant']} "
        f"trace={result['trace']}: {len(result['sweeps'])} sweeps ({n_plain} untraced), "
        f"{result['attempted']} jobs, {result['failed']} failed, "
        f"{result['subfloor_values']} eigenvalues below {SUBFLOOR_LAMBDA:g}"
    )
    if result["wall_sweep_s"] is not None:
        print(f"  unscaled wall time: sweep {result['wall_sweep_s']:.4g} s, set-up {result['wall_setup_s']:.4g} s; "
              f"calibration {result['calib_s']:.4g} s (reference {CALIB_REF_S:g} s)")
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    for p in result["problems"]:
        print(f"  FAIL {p}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for r in results:
        report(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
