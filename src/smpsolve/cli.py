"""Command line front end.

Two commands:

* ``smpsolve list``  show the registered experiments;
* ``smpsolve run``   solve one experiment, run its checks, write artifacts.

Configuration can come from a file (``--config``), from repeated
``--set section.key=value`` overrides, and from direct flags; flags win over
``--set``, which wins over the file.  The config file is either a JSON
object or plain ``dotted.key = value`` lines (blank lines and ``#``
comments allowed), so a file line and a ``--set`` argument are spelled the
same way.

Exit codes: 0 when every selected check passes, 1 on configuration or
runtime errors, 2 when at least one check fails, 3 when nothing fails but
some check is inconclusive.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2
EXIT_INCONCLUSIVE = 3

_SECTION_KEYS = {
    "grid": {"horizon", "steps"},
    "run": {"paths", "seed", "basis_degree", "checks"},
    "output": {"dir"},
}


class ConfigError(Exception):
    pass


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_set(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"expected key=value, got {assignment!r}")
    key, value = assignment.split("=", 1)
    parts = key.strip().split(".")
    if not all(parts):
        raise ConfigError(f"malformed key {key!r}")
    node = config
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"key {key!r} collides with a scalar entry")
    node[parts[-1]] = _parse_value(value.strip())


def _read_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            config = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config root must be an object")
        return config
    config: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _apply_set(config, line)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return config


def _validate_config(config: dict, experiment_names) -> None:
    for section, value in config.items():
        if section == "experiment":
            if not isinstance(value, str):
                raise ConfigError("experiment must be a string")
        elif section in _SECTION_KEYS:
            if not isinstance(value, dict):
                raise ConfigError(f"section {section!r} must be a table")
            bad = set(value) - _SECTION_KEYS[section]
            if bad:
                raise ConfigError(f"unknown {section} keys: {sorted(bad)}")
        elif section in experiment_names:
            if not isinstance(value, dict):
                raise ConfigError(f"section {section!r} must be a table of parameters")
        else:
            raise ConfigError(f"unknown config section {section!r}")


def _as_int(value) -> int:
    """``value`` as an int; booleans and non-integral floats are rejected, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def _as_float(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {json.dumps(value)}")
    return float(value)


def _build_params(params_type, values: dict):
    """``params_type(**values)``; each value given must be a finite number, or
    null where the field defaults to None.  Unknown keys are left to the constructor."""
    for f in dataclasses.fields(params_type):
        value = values.get(f.name, 0.0)  # an absent field keeps its default
        if value is None and f.default is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{f.name} must be a finite number, got {json.dumps(value)}")
    return params_type(**values)


def _canonical_checks(checks):
    if checks is None:
        return None
    if isinstance(checks, str):
        checks = [part.strip() for part in checks.split(",") if part.strip()]
    return [str(c) for c in checks]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors follow the documented exit codes."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="smpsolve",
        description="solve and certify discounted stochastic control problems",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list the registered experiments")

    run = sub.add_parser("run", help="run one experiment with its checks")
    run.add_argument("--experiment", "-e", help="experiment name")
    run.add_argument("--config", help="config file (key = value lines, or JSON)")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config entry (repeatable), e.g. --set run.paths=5000",
    )
    run.add_argument(
        "--check",
        dest="checks",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named checks (repeatable)",
    )
    run.add_argument("--out", help="output directory (default: current)")
    run.add_argument("--seed", type=int, help="simulation seed")
    run.add_argument("--paths", type=int, help="number of Monte Carlo paths")
    run.add_argument("--steps", type=int, help="time steps on the grid")
    run.add_argument("--horizon", type=float, help="truncation horizon")
    run.add_argument(
        "--dump-paths",
        action="store_true",
        help="also write paths.csv (first 100 paths) and binary state dumps",
    )
    return parser


def _command_list() -> int:
    from .experiments import list_experiments

    for definition in list_experiments():
        print(f"{definition.name:12s} {definition.summary}")
    return EXIT_OK


def _command_run(args) -> int:
    from . import experiments
    from .forward import SimulationError, TimeGrid
    from .bsde import CostateTable, RegressionError
    from .experiments import PicardError, get_experiment, run_experiment
    from .io import (
        save_costates,
        save_ensemble,
        write_curves_csv,
        write_paths_csv,
        write_reports_csv,
        write_results_json,
    )

    experiment_names = {d.name for d in experiments.list_experiments()}
    try:
        config = _read_config(args.config) if args.config else {}
        for assignment in args.overrides:
            _apply_set(config, assignment)
        _validate_config(config, experiment_names)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    name = args.experiment or config.get("experiment")
    if not name:
        print("error: no experiment named (use --experiment or the config)", file=sys.stderr)
        return EXIT_ERROR
    if name not in experiment_names:
        print(
            f"error: unknown experiment {name!r}; available: {', '.join(sorted(experiment_names))}",
            file=sys.stderr,
        )
        return EXIT_ERROR

    definition = get_experiment(name)
    grid_cfg = config.get("grid", {})
    run_cfg = config.get("run", {})
    out_dir = args.out or config.get("output", {}).get("dir") or "."

    steps = args.steps if args.steps is not None else grid_cfg.get("steps")
    horizon = args.horizon if args.horizon is not None else grid_cfg.get("horizon")
    n_paths = args.paths if args.paths is not None else run_cfg.get("paths")
    seed = args.seed if args.seed is not None else run_cfg.get("seed", 0)
    checks = args.checks if args.checks is not None else run_cfg.get("checks")
    degree = run_cfg.get("basis_degree")
    try:
        steps = None if steps is None else _as_int(steps)
        horizon = None if horizon is None else _as_float(horizon)
        n_paths = None if n_paths is None else _as_int(n_paths)
        seed = _as_int(seed)
        degree = None if degree is None else _as_int(degree)
        checks = _canonical_checks(checks)
        out = Path(out_dir)
    except (TypeError, ValueError) as exc:
        print(f"error: bad config value: {exc}", file=sys.stderr)
        return EXIT_ERROR

    params_cfg = config.get(name, {})
    try:
        params = _build_params(definition.params_type, params_cfg)
    except (TypeError, ValueError, OverflowError) as exc:
        print(f"error: bad parameters for {name!r}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {str(out)!r}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        grid = None
        if steps is not None or horizon is not None:
            steps = steps if steps is not None else definition.default_steps
            if horizon is None:
                grid = TimeGrid.auto(definition.problem(params).beta, steps)
            else:
                grid = TimeGrid(horizon=horizon, steps=steps)
        basis = definition.basis
        if degree is not None:
            basis = dataclasses.replace(basis, degree=degree)
        # the one Y table: a dump's, kept by the candidate's backward pass
        table = CostateTable()
        result = run_experiment(
            name,
            params=params,
            grid=grid,
            n_paths=n_paths,
            seed=seed,
            basis=basis,
            checks=checks,
            visitors=(table,) if args.dump_paths else (),
        )
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (SimulationError, RegressionError, PicardError) as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_ERROR

    payload = {
        "schema": 1,
        **result.to_dict(),
        "metadata": {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "command": "run",
        },
    }
    write_results_json(out / "results.json", payload)
    write_reports_csv(out / "reports.csv", result.reports)
    write_curves_csv(out / "curves.csv", result.curves)
    if args.dump_paths:
        if result.ensemble is None:
            print("note: --dump-paths wrote nothing: no selected check simulated paths", file=sys.stderr)
        else:
            write_paths_csv(out / "paths.csv", result.ensemble)
            save_ensemble(out / name, result.ensemble)
            if result.solution is None:
                print(
                    "note: --dump-paths wrote no costate (_y, _z) files: no selected check solved it",
                    file=sys.stderr,
                )
            else:
                save_costates(out / name, result.solution, table.Y)

    for report in result.reports:
        print(report.summary_line())
    n_fail = sum(1 for r in result.reports if r.status == "fail")
    n_open = sum(1 for r in result.reports if r.status == "inconclusive")
    print(
        f"{name}: {len(result.reports)} checks, {n_fail} failed, "
        f"{n_open} inconclusive; artifacts in {out.resolve()}"
    )
    if n_fail:
        return EXIT_CHECK_FAILED
    if n_open:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    parser.print_help()
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
