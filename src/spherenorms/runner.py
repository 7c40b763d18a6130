"""Sweep driver: computes the requested functionals for every degree in a
config, writes deterministic CSV results plus a timing sidecar, and reshapes
result CSVs into plot-ready series.

Determinism contract: the results CSV depends only on the config (hash, seed
included); wall times live in a separate timings file so reruns are
byte-identical.  A job is one degree: it realizes E_L once and runs that
degree's functionals on it in config order, with one masked rule per node
layout, so E_L is classified once per layout.  Each functional gets its own
timed row (the first also pays for realizing E_L).  Jobs may run in a process
pool; rows are sorted by key before writing, so worker count does not affect
output.  A degree-free functional runs only in the first job, and its row is
repeated at every other degree with a wall time of 0.
"""

from __future__ import annotations

import contextlib
import csv
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .config import FUNCTIONALS, ExperimentConfig, config_hash
from .sets import realize_family

__all__ = ["ResultRow", "run_experiment", "write_results", "read_results", "plotdata", "RESULT_COLUMNS"]

SCHEMA = "1"
RESULT_COLUMNS = ["schema", "config_hash", "L", "functional", "value", "witness"]
TIMING_COLUMNS = ["schema", "config_hash", "L", "functional", "wall_time_s"]


@dataclass(frozen=True)
class ResultRow:
    schema: str
    config_hash: str
    L: int
    functional: str
    value: float
    witness: str
    wall_time_s: float


def _job(cfg, digest, L, indices):
    """Rows of the functionals at ``indices`` of the config at degree L, in order."""
    t = time.perf_counter()
    E = realize_family(cfg.family, cfg.d, L)
    layouts = {}

    def rule(*request, **kw):
        built = cfg.sampling.rule(E, cfg.d, *request, **kw)
        return layouts.setdefault(built.layout, built)

    rows = []
    for i in indices:
        fn = cfg.functionals[i]
        value, witness = FUNCTIONALS[fn.name].compute(cfg, E, L, fn.params, rule)
        t0, t = t, time.perf_counter()
        rows.append(ResultRow(SCHEMA, digest, L, fn.tag, float(value), witness, t - t0))
    return rows


def run_experiment(cfg: ExperimentConfig, output_dir, workers: int = 1, verbose: bool = False):
    """Run one job per degree, write results.csv and timings.csv, and return
    the sorted rows."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = config_hash(cfg)
    degree_free = [FUNCTIONALS[f.name].degree_free for f in cfg.functionals]
    jobs = [(L, [i for i, free in enumerate(degree_free) if k == 0 or not free]) for k, L in enumerate(cfg.L_list)]
    degrees, indices = zip(*[(L, ix) for L, ix in jobs if ix])
    rows = []
    if workers > 1:  # a one-worker run does not pay for the pool's imports
        import concurrent.futures
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        for job_rows in (map if pool is None else pool.map)(_job, [cfg] * len(degrees), [digest] * len(degrees),
                                                             degrees, indices):
            rows += job_rows
            if verbose:
                for row in job_rows:
                    print(f"  L={row.L:4d} {row.functional:12s} value={row.value!r} ({row.wall_time_s:.1f}s)")
    # the first job's rows come first, one per functional in config order
    first = [row for row, free in zip(rows, degree_free) if free]
    rows += [replace(row, L=L, wall_time_s=0.0) for row in first for L in cfg.L_list[1:]]
    rows.sort(key=lambda r: (r.L, r.functional))
    results_path = out / "results.csv"
    timings_path = out / "timings.csv"
    write_results(rows, results_path)
    with open(timings_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TIMING_COLUMNS)
        for r in rows:
            w.writerow([r.schema, r.config_hash, r.L, r.functional, f"{r.wall_time_s:.3f}"])
    return results_path, timings_path, rows


def write_results(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(RESULT_COLUMNS)
        for r in rows:
            w.writerow([r.schema, r.config_hash, r.L, r.functional, repr(r.value), r.witness])


def read_results(path) -> list[dict]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULT_COLUMNS:
            raise ValueError(
                f"results schema mismatch: expected columns {RESULT_COLUMNS}, got {reader.fieldnames}"
            )
        return [dict(row) for row in reader]


def plotdata(csv_paths, kind: str, out_path, labels=None):
    """Pivot result CSVs into one plot-ready file: x = L, one value column per series."""
    series = []
    for i, path in enumerate(csv_paths):
        rows = [r for r in read_results(path) if r["functional"] == kind]
        if not rows:
            raise ValueError(f"{path}: no rows for functional {kind!r}")
        name = labels[i] if labels and i < len(labels) else rows[0]["config_hash"]
        series.append((name, {int(r["L"]): r["value"] for r in rows}))
    all_L = sorted({L for _, data in series for L in data})
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["L"] + [name for name, _ in series])
        for L in all_L:
            w.writerow([L] + [data.get(L, "") for _, data in series])
    return out_path
