"""Benchmark samples in one fresh interpreter.

    python3 perfbench/sweep.py CONFIG OUT_DIR [--setup-only] [--trace]
                               [--seconds S] [--min-sweeps N]

Times the set-up (importing ``spherenorms`` and parsing CONFIG) and, unless
``--setup-only``, whole sweeps through ``runner.run_experiment`` with one
worker, one after another, while the next one is expected to end within S
seconds (at least N sweeps).  A host-speed calibration (calibrate.py) is
timed before the first sweep and after each one; each sweep records the mean
of the two calibrations around it.  Sweep i writes results.csv and timings.csv to
OUT_DIR/sweep<i>.  With ``--trace`` the sweeps run under the span recorder,
and sweep i's spans go to OUT_DIR/sweep<i>/spans.jsonl.  The last line on
stdout is one JSON record.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

WORKERS = 1


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def package_env() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workers": WORKERS,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("out_dir")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-sweeps", type=int, default=1)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import spherenorms.runner as runner
    from spherenorms.config import parse_config

    cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    record = {"setup_s": time.perf_counter() - t0}
    record["env"] = package_env()
    if args.setup_only:
        print(json.dumps(record))
        return 0

    from calibrate import Calibrator  # imports NumPy, so only after set-up is timed

    tracer = None
    if args.trace:
        from tracer import TARGETS, Tracer, span_metrics

        tracer = Tracer()
        tracer.install(TARGETS)
    record["sweeps"] = []
    with Calibrator() as calibrate:
        calib_s = calibrate()
        start = time.perf_counter()
        while len(record["sweeps"]) < args.min_sweeps or (
            time.perf_counter() - start + statistics.median(s["sweep_s"] for s in record["sweeps"]) <= args.seconds
        ):
            out = Path(args.out_dir) / f"sweep{len(record['sweeps'])}"
            t0 = time.perf_counter()
            try:
                _, _, rows = runner.run_experiment(cfg, out, workers=WORKERS)
            except Exception:  # a sweep is the unit of failure; the caller counts its jobs as failed
                record["sweeps"].append({"dir": str(out), "error": traceback.format_exc()})
                break
            sweep = {"dir": str(out), "sweep_s": time.perf_counter() - t0, "job_s": sum(r.wall_time_s for r in rows)}
            after_s = calibrate()
            sweep["calib_s"] = (calib_s + after_s) / 2
            calib_s = after_s
            if tracer is not None:
                sweep["layers"] = span_metrics(tracer)
                with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
                    for row in tracer.records():
                        fh.write(json.dumps(row) + "\n")
                tracer.clear()
            record["sweeps"].append(sweep)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
