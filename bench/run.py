#!/usr/bin/env python3
"""smpsolve certification benchmark.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload consumption-battery --seed 0 --seconds 20 --trace 0

Each repeat of a workload is a fresh Python process (``bench/child.py``)
that imports smpsolve from ``src/`` and runs ``smpsolve.cli.main`` in-process
with the workload's ``run -e ...`` arguments and ``--seed``.  With
``--trace 0`` the benchmark repeats the workload until ``--seconds`` have
passed, times a few import-only processes for the set-up time, and reports
the end-to-end metrics named in ``BENCHMARK.json`` as medians over the
repeats.  With ``--trace 1`` it runs the workload once untraced and once with
every layer wrapped (``bench/trace_layers.py``) and reports the per-layer
metrics.  Every repeat passes a correctness gate: exit code 0,
``results.json`` with schema 1, the workload's expected verdicts, and, on
``production-costs`` and ``logistic-picard``, an estimate within
``REF_SE_LIMIT`` standard errors of its reference.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record of
the run, with the environment, goes to ``.bench_runs/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SPEC = json.loads((HERE / "workloads.json").read_text())

# a whole run must end within 180 s; leave room for the final bookkeeping
DEADLINE_S = 165.0
SETUP_PROBES = 5
BLAS_THREADS = 1
EXPECTED_EXIT = 0
# a repeat fails its reference test when |estimate - reference| exceeds this
# many standard errors of that difference
REF_SE_LIMIT = 4.0
# workloads whose accuracy figure is Monte Carlo noise around its reference;
# the consumption costate carries a regression bias of about 3 %, which the
# ``oracle`` verdict bounds (5 % against the closed form along the whole curve)
REF_TESTED = ("production-costs", "logistic-picard")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, _nproc()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    """Starts the measured child processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float,
                 extra_argv: tuple = ()) -> None:
        self.workload = workload
        self.spec = SPEC["workloads"][workload]
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.extra_argv = list(extra_argv)
        self.env = _child_env()
        self.count = 0

    def _spawn(self, argv=None, trace=False) -> dict | None:
        """Run one child; returns its result, or None when it produced none."""
        self.count += 1
        tag = f"{self.count:03d}"
        request = {
            "src": str(SRC),
            "argv": None,
            "trace": trace,
            "result": str(self.work / f"{tag}.result.json"),
        }
        if argv is not None:
            out = self.work / f"{tag}.out"
            out.mkdir()
            request.update(argv=argv + ["--out", str(out)], out=str(out),
                           log=str(self.work / f"{tag}.cli.log"))
        req_path = self.work / f"{tag}.request.json"
        req_path.write_text(json.dumps(request))
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.work / f"{tag}.child.log", "w") as log:
            start = time.monotonic()
            try:
                subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(req_path)],
                    cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=timeout, check=False,
                )
            except subprocess.TimeoutExpired:
                return None
        result_path = Path(request["result"])
        if not result_path.exists():
            return None
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - start
        if argv is not None:
            result["out"] = request["out"]
        return result

    def setup_probe(self) -> dict | None:
        return self._spawn()

    def repeat(self, trace=False) -> dict:
        argv = self.spec["argv"] + ["--seed", str(self.seed)] + self.extra_argv
        result = self._spawn(argv, trace) or {}
        result["gate"] = gate(self.workload, result)
        # the binary state dumps (about 130 MB on production-costs) are
        # counted by the child and never read again; dropping them keeps
        # their write-back out of the next repeat's timing
        if "out" in result:
            for dump in Path(result["out"]).glob("*.smp"):
                dump.unlink()
        return result

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def _load_results(result: dict) -> dict | None:
    if "out" not in result:
        return None
    try:
        return json.loads((Path(result["out"]) / "results.json").read_text())
    except (OSError, ValueError):
        return None


def gate(workload: str, result: dict) -> dict:
    """Correctness of one repeat: attempted and failed operations, and why.

    Each expected verdict is one operation; so is the reference test of a
    workload whose accuracy figure has a standard error (see ``reference``).
    """
    spec = SPEC["workloads"][workload]
    expected = Counter(tuple(v) for v in spec["expected_verdicts"])
    attempted = sum(expected.values()) + (workload in REF_TESTED)
    payload = _load_results(result)
    problems = []
    if result.get("error"):
        problems.append("exception in the CLI: " + result["error"].strip().splitlines()[-1])
    if payload is None or payload.get("schema") != 1:
        problems.append("results.json missing, unreadable or not schema 1")
        return {"attempted": attempted, "failed": attempted, "problems": problems}
    got = Counter((r["check"], r["status"]) for r in payload["reports"])
    failed = max(sum((expected - got).values()), sum((got - expected).values()))
    if failed:
        problems.append(f"verdicts differ: expected {sorted(expected - got)}, got {sorted(got - expected)}")
    if workload in REF_TESTED:
        try:
            name, estimate, ref, se = reference(workload, payload)
            if not abs(estimate - ref) <= REF_SE_LIMIT * se:
                problems.append(f"{name}: estimate {estimate:.6g} is {abs(estimate - ref) / se:.2f} SE "
                                f"from the reference {ref:.6g} (limit {REF_SE_LIMIT:g})")
                failed += 1
        except (KeyError, TypeError):
            problems.append("results.json lacks the figures of the reference test")
            failed += 1
    if result.get("exit_code") != EXPECTED_EXIT:
        problems.append(f"exit code {result.get('exit_code')}, expected {EXPECTED_EXIT}")
        failed = max(failed, 1)
    return {"attempted": attempted, "failed": min(failed, attempted), "problems": problems}


def reference(workload: str, payload: dict) -> tuple[str, float, float, float | None]:
    """The workload's accuracy figure: its name, the estimate, the reference,
    and the standard error of estimate - reference (None where not tested)."""
    params = payload["params"]
    if workload == "consumption-battery":
        # closed-form costate at time zero of the zero-terminal problem:
        # y(0) = g(0)/x0, g(0) = (1 - exp(-beta T)) / beta
        beta = params["beta"] or 2.0 * params["mu"] + 2.0 * params["sigma"] ** 2 + 0.5
        ref = (1.0 - math.exp(-beta * payload["grid"]["horizon"])) / beta / params["x0"]
        return "y0_rel_err", payload["scalars"]["y0_estimate"], ref, None
    if workload == "production-costs":
        # stationary Riccati value V(x0) = phi x0^2 / 2 + psi x0 + offset
        c, h, beta, sigma = params["c"], params["h"], params["beta"], params["sigma"]
        drift = params["u1"] - params["eta"]
        phi = c * beta - math.sqrt(c * c * beta * beta + 4.0 * c * h)
        psi = (phi * drift + 2.0 * h * params["x1"]) / (beta - phi / (2.0 * c))
        offset = (drift * psi + psi * psi / (4.0 * c) + 0.5 * sigma**2 * phi - h * params["x1"] ** 2) / beta
        x0 = params["x0"]
        ref = 0.5 * phi * x0 * x0 + psi * x0 + offset
        candidate = payload["costs"]["candidate"]
        return "value_rel_err", candidate["value"], ref, candidate["standard_error"]
    # the stored SE is that of the larger reference run; the run's own SE is
    # the same spread at its path count
    stored = SPEC["logistic_y0_reference"]
    own_se = stored["standard_error"] * math.sqrt(stored["n_paths"] / payload["n_paths"])
    se = math.hypot(stored["standard_error"], own_se)
    return "y0_rel_err", payload["scalars"]["y0_estimate"], stored["value"], se


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, list]:
    """Untraced repeats for ``seconds``; returns metrics, extra figures, repeats."""
    runner.setup_probe()  # warm-up: byte-compiles src/ on a fresh checkout
    setups = []
    for _ in range(SETUP_PROBES):
        probe = runner.setup_probe()
        if probe is not None:
            setups.append(probe["setup_s"])

    repeats = []
    start = time.monotonic()
    while not repeats or time.monotonic() - start < seconds:
        if repeats and runner.time_left() < 1.2 * repeats[-1].get("wall_s", 0.0):
            break
        t0 = time.monotonic()
        rep = runner.repeat()
        rep["wall_s"] = time.monotonic() - t0
        repeats.append(rep)
        if "setup_s" in rep:
            setups.append(rep["setup_s"])

    timed = [r for r in repeats if "run_s" in r]
    if not timed or not setups:
        raise RuntimeError("no repeat produced timings")
    spec = runner.spec
    work = spec["n_paths"] * spec["steps"]
    attempted = sum(r["gate"]["attempted"] for r in repeats)
    failed = sum(r["gate"]["failed"] for r in repeats)
    # every repeat runs the same seed, so any readable payload gives the figures
    payload = next(filter(None, map(_load_results, timed)), None)
    extras = {"check_fail_frac": failed / attempted}
    agreement = 0.0
    try:
        err_name, estimate, ref, _ = reference(runner.workload, payload)
        err = abs(estimate - ref) / abs(ref)
        extras[err_name] = err
        agreement = 1.0 - err
        if runner.workload == "consumption-battery":
            extras["oracle_stat"] = next(
                r["statistic"] for r in payload["reports"] if r["check"] == "oracle"
            )
    except (KeyError, TypeError, StopIteration):
        extras["reference_missing"] = True
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in timed),
        "setup_s": statistics.median(setups),
        "path_steps_per_s": statistics.median(work / r["run_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "ref_agreement": agreement,
        "check_pass_frac": 1.0 - failed / attempted,
    }
    return metrics, extras, repeats


def per_layer(runner: Runner) -> tuple[dict, dict, list]:
    """One untraced and one traced repeat; returns metrics, extras, repeats."""
    plain = runner.repeat()
    traced = runner.repeat(trace=True)
    repeats = [plain, traced]
    if "run_s" not in plain or "layers" not in traced:
        raise RuntimeError("the traced or the untraced repeat produced no timings")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    extras = {"traced_matches_untraced": _same_outputs(plain, traced)}
    if not extras["traced_matches_untraced"]:
        traced["gate"]["problems"].append("traced outputs differ from the untraced run")
        traced["gate"]["failed"] = traced["gate"]["attempted"]
    return metrics, extras, repeats


def _same_outputs(a: dict, b: dict) -> bool:
    pa, pb = _load_results(a), _load_results(b)
    if pa is None or pb is None:
        return False
    pa.pop("metadata", None)
    pb.pop("metadata", None)
    return json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)


def declared_metrics(trace: bool) -> list:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "smpsolve" / "cli.py").is_file():
        print(f"error: no smpsolve source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seed == SPEC["logistic_y0_reference"]["seed"]:
        print("error: that seed made the logistic y0 reference; use another", file=sys.stderr)
        return 2

    work = RUNS / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work, deadline)
    trace = bool(args.trace)
    try:
        if trace:
            values, extras, repeats = per_layer(runner)
        else:
            values, extras, repeats = end_to_end(runner, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}; logs in {work}", file=sys.stderr)
        return 1

    metrics = {}
    for m in declared_metrics(trace):
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(r["gate"]["attempted"] for r in repeats)
    failed = sum(r["gate"]["failed"] for r in repeats)
    environment = dict(repeats[0].get("environment", {}))
    environment.update(blas_threads=min(BLAS_THREADS, _nproc()), nproc=_nproc())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "metrics": metrics,
        "extras": extras,
        "repeats": [
            {k: r.get(k) for k in ("setup_s", "run_s", "peak_rss_mb", "exit_code", "gate", "span_table")}
            for r in repeats
        ],
    }
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print("environment: " + ", ".join(f"{k}={v}" for k, v in environment.items()))
    for r in repeats:
        for problem in r["gate"]["problems"]:
            print(f"gate: {problem}")
    print(f"repeats: {len(repeats)}, verdicts attempted {attempted}, failed {failed}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in extras.items():
        print(f"{name} = {value}" if isinstance(value, bool) else f"{name} = {value:.6g} ratio")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
