#!/usr/bin/env python3
"""Recompute the logistic y0 reference stored in ``bench/workloads.json``.

Usage, from the root of a source checkout::

    python3 bench/make_reference.py

The logistic experiment has no closed form, so ``logistic-picard`` measures
its y0 against one larger run: ``run -e logistic --check picard`` with
``n_paths`` paths at a seed the benchmark refuses to run.  The standard error
of that value is the seed-to-seed spread of y0 at the workload's own path
count, over a few further seeds, scaled by sqrt(workload paths / n_paths).
Prints the ``logistic_y0_reference`` entry; paste it into the JSON file.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPREAD_SEEDS = 5


def y0(seed: int, n_paths: int, out: Path) -> float:
    from smpsolve.cli import main

    code = main(["run", "-e", "logistic", "--check", "picard", "--paths", str(n_paths),
                 "--seed", str(seed), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"reference run at seed {seed} exited with {code}")
    return json.loads((out / "results.json").read_text())["scalars"]["y0_estimate"]


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((HERE / "workloads.json").read_text())
    ref = spec["logistic_y0_reference"]
    small = spec["workloads"]["logistic-picard"]["n_paths"]
    out = ROOT / ".bench_runs" / "reference"
    out.mkdir(parents=True, exist_ok=True)

    value = y0(ref["seed"], ref["n_paths"], out)
    spread = statistics.stdev(
        y0(ref["seed"] + k, small, out) for k in range(1, SPREAD_SEEDS + 1)
    )
    ref.update(value=value, standard_error=spread * math.sqrt(small / ref["n_paths"]))
    print(json.dumps({"logistic_y0_reference": ref}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
