"""Command-line driver: run experiment sweeps, verify the acceptance suite,
reshape results for plotting, and describe the computed functionals."""

from __future__ import annotations

import argparse
import sys

from .errors import (ConfigError, DegenerateMeasureError, EmptyIntersectionError, NetConstructionError,
                     ResourceLimitError)

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spherenorms",
        description="Norm-comparison laboratory for polynomials on sphere subsets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config and write CSVs")
    p_run.add_argument("config", help="path to a YAML experiment config")
    p_run.add_argument("-o", "--output-dir", default="results", help="output directory")
    p_run.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("-v", "--verbose", action="store_true")

    p_verify = sub.add_parser("verify", help="run the acceptance criteria suite")
    p_verify.add_argument(
        "--criteria", default=None,
        help="comma-separated criterion numbers to run (default: all)",
    )
    p_verify.add_argument("-o", "--output-dir", default=None, help="working directory for sweep outputs")
    p_verify.add_argument("-q", "--quiet", action="store_true")

    p_plot = sub.add_parser("plotdata", help="pivot result CSVs into plot-ready series")
    p_plot.add_argument("csvs", nargs="+", help="results.csv paths (one series each)")
    p_plot.add_argument("--kind", required=True, help="functional name to extract")
    p_plot.add_argument("-o", "--output", required=True, help="output CSV path")
    p_plot.add_argument("--labels", default=None, help="comma-separated series labels")

    sub.add_parser("describe", help="print the functional reference")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "plotdata":
            return _cmd_plotdata(args)
        if args.command == "describe":
            return _cmd_describe()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, DegenerateMeasureError, NetConstructionError, EmptyIntersectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_run(args) -> int:
    from dataclasses import replace

    from .config import config_hash, load_config
    from .runner import run_experiment

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.verbose:
        print(f"config {config_hash(cfg)} label={cfg.label!r} d={cfg.d} L={list(cfg.L_list)}")
    results, timings, rows = run_experiment(cfg, args.output_dir, workers=args.workers, verbose=args.verbose)
    print(f"wrote {results} ({len(rows)} rows) and {timings}")
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import AcceptanceSuite

    indices = None
    if args.criteria:
        indices = sorted(int(tok) for tok in args.criteria.split(",") if tok.strip())
    suite = AcceptanceSuite(workdir=args.output_dir, verbose=not args.quiet)
    results = suite.run(indices)
    failed = [r for r in results if not r.passed]
    return 1 if failed else 0


def _cmd_plotdata(args) -> int:
    from .runner import plotdata

    labels = args.labels.split(",") if args.labels else None
    out = plotdata(args.csvs, args.kind, args.output, labels=labels)
    print(f"wrote {out}")
    return 0


def _cmd_describe() -> int:
    from .config import FUNCTIONALS

    print("Functionals computed by this package (E_L = set at degree L, mu = measure):\n")
    for name, entry in FUNCTIONALS.items():
        print(f"  {name:<12s}" + entry.describe.replace("\n", "\n" + " " * 14))
    return 0


if __name__ == "__main__":
    sys.exit(main())
