#!/usr/bin/env python3
"""Fast self-check of the benchmark harness at reduced path counts.

Usage, from the root of a source checkout::

    python3 bench/selfcheck.py

For every workload it runs one untraced and one traced repeat, plus a short
end-to-end run, all with ``PATHS`` paths in place of the workload's path
count, and checks that

* every metric ``BENCHMARK.json`` declares is measured and has a unit;
* every repeat passes the correctness gate of ``run.py``;
* the traced run writes the same ``results.json`` as the untraced one, to
  the bit (verdicts, y0, the candidate's value: the wrappers only pass
  calls through);
* the layer self times plus ``run.unattributed_s`` add up to the traced
  wall time, and ``run.unattributed_s`` (the CLI glue outside every layer)
  is at most ``UNATTRIBUTED_SHARE`` of it;
* every span behind a layer metric that ``bench/workloads.json`` says should
  move an end-to-end metric on the workload shows up in its traced run, so
  an entry point that escaped wrapping fails the check.

Exits 0 when every check holds and 1 otherwise.
"""
from __future__ import annotations

import math
import shutil
import sys
import time

from run import RUNS, SPEC, Runner, declared_metrics, end_to_end, per_layer
from trace_layers import CALLS, INCLUSIVE, LAYERS

PATHS = 2000
UNATTRIBUTED_SHARE = 0.02


def expected_spans(workload: str) -> set:
    """Span names behind the layer metrics that should move on ``workload``."""
    names = set()
    for metric, moves in SPEC["layer_metrics_move"].items():
        if any(w == workload for _, w in moves):
            names.update(INCLUSIVE.get(metric, ()))
            if metric in CALLS:
                names.add(CALLS[metric])
    return names


def check_workload(workload: str) -> list:
    problems = []
    work = RUNS / "selfcheck" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, 1, work, time.monotonic() + 600.0, ("--paths", str(PATHS)))

    layer_values, extras, repeats = per_layer(runner)
    e2e_values, _, e2e_repeats = end_to_end(runner, 0.0)
    for rep in repeats + e2e_repeats:
        problems.extend("gate: " + problem for problem in rep["gate"]["problems"])
    for trace, values in ((True, layer_values), (False, e2e_values)):
        for metric in declared_metrics(trace):
            if not metric.get("unit"):
                problems.append(f"{metric['name']} has no unit")
            value = values.get(metric["name"])
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{metric['name']} not measured: {value!r}")
    if not extras["traced_matches_untraced"]:
        problems.append("traced results.json differs from the untraced one")
    wall, unattributed = layer_values["run.traced_s"], layer_values["run.unattributed_s"]
    parts = sum(layer_values[f"{layer}.self_s"] for layer in LAYERS) + unattributed
    if abs(parts - wall) > 1e-6:
        problems.append(f"self times + unattributed = {parts:.9f} s, traced wall = {wall:.9f} s")
    if not 0.0 <= unattributed <= UNATTRIBUTED_SHARE * wall:
        problems.append(f"run.unattributed_s = {unattributed:.4f} s of {wall:.4f} s traced")
    missing = expected_spans(workload) - set(repeats[1]["span_table"])
    if missing:
        problems.append(f"spans never recorded: {sorted(missing)}")
    return problems


def main() -> int:
    failures = 0
    for workload in SPEC["workloads"]:
        problems = check_workload(workload)
        failures += len(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
