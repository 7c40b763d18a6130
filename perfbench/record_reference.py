"""Record perfbench/reference.json, the values every benchmark sweep is checked against.

    python3 perfbench/record_reference.py

Runs one untraced sweep of every input variant of every workload, with the
same pinned settings as the benchmark, and stores each results.csv value by
"L/functional".  Record it at the commit a change is measured against; a
change that alters results on purpose records it again and says why.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    out = run.OUT / "reference"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workloads = {}
    env = None
    for name, wl in run.WORKLOADS.items():
        workloads[name] = {}
        for variant in range(wl.variants):
            text, _, _ = run.workload_config(wl, variant)
            config = out / f"{name}-{variant}.yaml"
            config.write_text(text, encoding="utf-8")
            rec = run.sample(config, out / f"{name}-{variant}")
            sweep = rec["sweeps"][0]
            if "error" in sweep:
                print(f"{name} variant {variant} raised:\n{sweep['error']}", file=sys.stderr)
                return 1
            env = env or run.environment(rec["env"])
            workloads[name][str(variant)] = run.read_values(Path(sweep["dir"]) / "results.csv")
            print(f"{name} variant {variant}: {len(workloads[name][str(variant)])} values", flush=True)
    run.REFERENCE.write_text(
        json.dumps({"environment": env, "workloads": workloads}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
