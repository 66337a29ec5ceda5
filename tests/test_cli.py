"""Command line behavior: exit codes, config handling, artifacts."""
import contextlib
import io
import json
import os
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smpsolve
from smpsolve.cli import _build_parser, main
from smpsolve import experiments
from smpsolve.experiments import _GENERIC_CHECKS, list_experiments
from smpsolve.io import KIND_Z, read_array

README = Path(__file__).resolve().parents[1] / "README.md"


def _strip_metadata(path):
    payload = json.loads(path.read_text())
    payload.pop("metadata", None)
    return json.dumps(payload, sort_keys=True)


def _run(*argv):
    return main(list(argv))


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy would add most of the start-up time
    probe = "import sys, smpsolve.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(smpsolve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


class TestList:
    def test_lists_builtin_experiments(self, capsys):
        assert _run("list") == 0
        out = capsys.readouterr().out
        for name in ("consumption", "production", "logistic"):
            assert name in out


class TestExitCodes:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        code = _run(
            "run", "-e", "consumption",
            "--check", "assumptions", "--check", "identities",
            "--out", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 checks, 0 failed, 0 inconclusive" in out
        assert (tmp_path / "results.json").exists()
        assert (tmp_path / "reports.csv").exists()
        assert (tmp_path / "curves.csv").exists()

    def test_failed_check_exits_two(self, tmp_path, capsys):
        code = _run(
            "run", "-e", "consumption",
            "--set", "consumption.beta=0.01",
            "--check", "assumptions",
            "--out", str(tmp_path),
        )
        assert code == 2
        payload = json.loads((tmp_path / "results.json").read_text())
        statuses = {r["check"]: r["status"] for r in payload["reports"]}
        assert statuses["assumptions"] == "fail"

    def test_inconclusive_only_exits_three(self, tmp_path):
        # discount below the dissipativity threshold: the stability gap
        # does not apply and is reported as inconclusive, not failed
        code = _run(
            "run", "-e", "consumption",
            "--set", "consumption.beta=0.1",
            "--check", "stability",
            "--paths", "500", "--steps", "50", "--horizon", "10",
            "--out", str(tmp_path),
        )
        assert code == 3
        # strict JSON: a bare NaN or Infinity is not valid
        text = (tmp_path / "results.json").read_text()
        payload = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in results.json"))
        (report,) = payload["reports"]
        assert report["status"] == "inconclusive"
        assert report["statistic"] is None and report["tolerance"] is None
        assert "2 mu2 + 2 M^2" in report["notes"]

    def test_usage_error_exits_one(self, capsys):
        assert _run("run", "--bogus-flag") == 1

    def test_missing_experiment_exits_one(self, capsys):
        assert _run("run") == 1
        assert "no experiment" in capsys.readouterr().err

    def test_unknown_experiment_exits_one(self, capsys):
        assert _run("run", "-e", "portfolio") == 1
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "consumption" in err

    def test_unknown_check_exits_one(self, tmp_path, capsys):
        code = _run(
            "run", "-e", "consumption", "--check", "volatility", "--out", str(tmp_path)
        )
        assert code == 1
        assert "volatility" in capsys.readouterr().err

    def test_removed_martingale_check_exits_one(self, tmp_path, capsys):
        code = _run("run", "-e", "consumption", "--check", "martingale", "--out", str(tmp_path))
        assert code == 1
        assert "martingale" in capsys.readouterr().err

    def test_seed_beyond_int64_exits_one(self, tmp_path, capsys):
        code = _run(
            "run", "-e", "consumption", "--check", "oracle", "--paths", "50", "--steps", "10",
            "--seed", "36893488147419103232", "--out", str(tmp_path),
        )
        assert code == 1
        assert "error: seed must lie in [0, 2**63)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad",
        [
            ("--set", "grid.steps=abc"),
            ("--horizon", "-1"),
            ("--set", "run.basis_degree=0"),
            ("--set", "grid=5"),
            ("--set", "run=3"),
            ("--set", "output=1"),
            ("--set", "grid.steps=[1]"),
            ("--set", "grid.horizon=[3]"),
            ("--set", "run.paths=[2]"),
            ("--set", "run.basis_degree=[4]"),
            ("--set", "run.checks=5"),
            ("--paths", "1"),
            ("--paths", "0"),
            # integer keys are not truncated, and booleans are not numbers
            ("--set", "grid.steps=20.7"),
            ("--set", "grid.steps=true"),
            ("--set", "grid.steps=Infinity"),
            ("--set", "run.paths=100.5"),
            ("--set", "run.paths=true"),
            ("--set", "run.seed=1.5"),
            ("--set", "run.seed=true"),
            ("--set", "run.basis_degree=4.5"),
            ("--set", "run.basis_degree=true"),
            ("--set", "grid.horizon=true"),
        ],
    )
    def test_bad_grid_or_basis_exits_one(self, bad, tmp_path, capsys):
        # a --check flag would override run.checks, so that case runs without one
        checks = () if bad[1].startswith("run.checks") else ("--check", "assumptions")
        code = _run("run", "-e", "consumption", *checks, *bad, "--out", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_check_list_exits_one(self, tmp_path, capsys):
        code = _run("run", "-e", "consumption", "--set", "run.checks=", "--out", str(tmp_path))
        assert code == 1
        assert "no checks selected" in capsys.readouterr().err

    def test_bad_parameter_exits_one(self, tmp_path, capsys):
        code = _run(
            "run", "-e", "consumption",
            "--set", "consumption.cap=-1",
            "--check", "assumptions",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "bad parameters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "assignment",
        [
            'consumption.mu="0.05"', 'production.eta="x"', "production.sigma=null", "consumption.beta=true",
            # NaN and Infinity are not JSON, and pass every range check of the params;
            # an integer past the float range cannot be tested for finiteness
            "production.c=NaN", "production.h=Infinity", "consumption.mu=1" + "0" * 400,
        ],
    )
    def test_parameter_that_is_not_a_finite_number_exits_one(self, assignment, tmp_path, capsys):
        experiment = assignment.split(".")[0]
        code = _run("run", "-e", experiment, "--set", assignment, "--check", "assumptions", "--out", str(tmp_path))
        assert code == 1
        assert f"error: bad parameters for {experiment!r}" in capsys.readouterr().err

    def test_null_parameter_keeps_a_none_default(self, tmp_path):
        code = _run("run", "-e", "consumption", "--set", "consumption.beta=null", "--check", "assumptions",
                    "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["params"]["beta"] is None

    def test_output_path_that_is_a_file_exits_one_before_simulating(self, monkeypatch, tmp_path, capsys):
        simulated = []
        monkeypatch.setattr(experiments, "simulate_forward", lambda *args, **kwargs: simulated.append(args))
        taken = tmp_path / "taken"
        taken.write_text("")
        code = _run("run", "-e", "production", "--check", "costs", "--paths", "2000", "--out", str(taken))
        assert code == 1
        assert "error: cannot create output directory" in capsys.readouterr().err
        assert simulated == []

    def test_solver_failure_exits_one(self, tmp_path, capsys):
        # growth rate 50 drives every path past the explosion guard
        code = _run(
            "run", "-e", "consumption",
            "--set", "consumption.mu=50",
            "--check", "positivity",
            "--paths", "200", "--steps", "20",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "solver failed" in capsys.readouterr().err


class TestConfigFiles:
    def test_dotted_file_with_comments(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# smoke configuration\n"
            "experiment = consumption\n"
            "run.checks = assumptions   # problem-level only\n"
            "\n"
            "output.dir = " + str(tmp_path / "art") + "\n"
        )
        assert _run("run", "--config", str(cfg)) == 0
        assert (tmp_path / "art" / "results.json").exists()

    def test_comma_separated_check_list(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "experiment = consumption\n"
            "run.checks = assumptions, identities, concavity\n"
            "output.dir = " + str(tmp_path / "art") + "\n"
        )
        assert _run("run", "--config", str(cfg)) == 0
        payload = json.loads((tmp_path / "art" / "results.json").read_text())
        names = {r["check"] for r in payload["reports"]}
        assert {"assumptions", "identities", "concavity"} <= names
        assert len(payload["reports"]) >= 3

    def test_malformed_line_reports_its_number(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = consumption\nrun.paths 500\n")
        assert _run("run", "--config", str(cfg)) == 1
        assert "line 2" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = consumption\nrgun.paths = 5\n")
        assert _run("run", "--config", str(cfg)) == 1
        assert "rgun" in capsys.readouterr().err

    def test_json_and_dotted_configs_agree(self, tmp_path):
        dotted = tmp_path / "a.cfg"
        dotted.write_text(
            "experiment = consumption\n"
            "grid.horizon = 6.0\n"
            "grid.steps = 120\n"
            "run.paths = 800\n"
            "run.seed = 3\n"
            "run.checks = oracle\n"
        )
        as_json = tmp_path / "b.json"
        as_json.write_text(
            json.dumps(
                {
                    "experiment": "consumption",
                    "grid": {"horizon": 6.0, "steps": 120},
                    "run": {"paths": 800, "seed": 3, "checks": ["oracle"]},
                }
            )
        )
        out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
        assert _run("run", "--config", str(dotted), "--out", str(out_a)) == 0
        assert _run("run", "--config", str(as_json), "--out", str(out_b)) == 0
        assert _strip_metadata(out_a / "results.json") == _strip_metadata(out_b / "results.json")

    def test_same_seed_reruns_are_identical(self, tmp_path):
        args = (
            "run", "-e", "consumption",
            "--check", "oracle",
            "--paths", "800", "--steps", "120", "--horizon", "6", "--seed", "5",
        )
        out_a, out_b = tmp_path / "one", tmp_path / "two"
        assert _run(*args, "--out", str(out_a)) == 0
        assert _run(*args, "--out", str(out_b)) == 0
        assert _strip_metadata(out_a / "results.json") == _strip_metadata(out_b / "results.json")

    def test_flag_beats_set_beats_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "experiment = consumption\n"
            "grid.horizon = 4.0\n"
            "grid.steps = 40\n"
            "run.paths = 1000\n"
            "run.checks = assumptions\n"
        )
        out1 = tmp_path / "o1"
        assert _run(
            "run", "--config", str(cfg), "--set", "run.paths=600", "--out", str(out1)
        ) == 0
        assert json.loads((out1 / "results.json").read_text())["n_paths"] == 600
        out2 = tmp_path / "o2"
        assert _run(
            "run", "--config", str(cfg), "--set", "run.paths=600",
            "--paths", "300", "--out", str(out2),
        ) == 0
        assert json.loads((out2 / "results.json").read_text())["n_paths"] == 300


class TestCheckNames:
    # the old alias spellings are not check names
    @pytest.mark.parametrize("experiment,name", [("consumption", "cost_compare"), ("logistic", "consistency")])
    def test_former_alias_is_unknown(self, tmp_path, capsys, experiment, name):
        code = _run("run", "-e", experiment, "--check", name, "--out", str(tmp_path))
        assert code == 1
        assert name in capsys.readouterr().err

    def test_check_unavailable_for_experiment(self, tmp_path, capsys):
        # cylinder consistency belongs to the fixed-point model; asking for
        # it elsewhere is an error rather than a silent no-op
        code = _run(
            "run", "-e", "consumption", "--check", "cylinder", "--out", str(tmp_path)
        )
        assert code == 1
        assert "cylinder" in capsys.readouterr().err


class TestUniqueness:
    def test_logistic_restarts_agree(self, tmp_path):
        code = _run(
            "run", "-e", "logistic",
            "--check", "uniqueness",
            "--paths", "400", "--steps", "40", "--horizon", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "results.json").read_text())
        assert [(r["check"], r["status"]) for r in payload["reports"]] == [("local_uniqueness", "pass")]

    def test_not_a_consumption_check(self, tmp_path, capsys):
        code = _run("run", "-e", "consumption", "--check", "uniqueness", "--out", str(tmp_path))
        assert code == 1
        assert "uniqueness" in capsys.readouterr().err


class TestReadme:
    def test_command_lines_parse(self):
        blocks = re.findall(r"```[^\n]*\n(.*?)```", README.read_text(), re.S)
        lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("smpsolve ")]
        assert lines
        names = {d.name for d in list_experiments()}
        for line in lines:
            try:
                args = _build_parser().parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")
            if args.command == "run":
                assert args.experiment in names, line

    def test_library_example_certifies_the_optimal_candidate(self):
        code = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, str(README), "exec"), {})
        y0, status = out.getvalue().splitlines()
        assert float(y0.strip("[]")) > 0
        assert status == "pass"

    def test_adding_an_experiment_example_registers_a_runnable_model(self, monkeypatch):
        code = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)[1]
        # a copy of the registry, restored afterwards: the example's entry goes with it
        monkeypatch.setattr(experiments, "_REGISTRY", dict(experiments._REGISTRY))
        exec(compile(code, str(README), "exec"), {})
        result = experiments.run_experiment("toy", n_paths=2000)
        assert [(r.check, r.status) for r in result.reports] == [("steady_state", "pass"), ("assumptions", "pass")]

    def test_check_lists_match_the_registry(self):
        text = README.read_text()
        generic = re.search(r"generic checks \(([^)]*)\)", text).group(1)
        assert set(re.findall(r"`(\w+)`", generic)) == set(_GENERIC_CHECKS)
        for definition in list_experiments():
            line = re.search(rf"^- `{definition.name}`: (`\w+`(?:, `\w+`)*)$", text, re.M).group(1)
            assert set(re.findall(r"`(\w+)`", line)) == set(definition.checks), definition.name


_WORKLOADS = json.loads((README.parent / "bench" / "workloads.json").read_text())["workloads"]
_NO_TABLE_RUNS = {
    **{name: spec["argv"] for name, spec in _WORKLOADS.items()},
    **{f"default-{name}": ["run", "-e", name, "--dump-paths"] for name in ("consumption", "production", "logistic")},
}


class TestNoControlsTable:
    """An ensemble keeps no controls table, and no run builds one: every
    reader recomputes the controls step by step."""

    @pytest.mark.parametrize("argv", list(_NO_TABLE_RUNS.values()), ids=list(_NO_TABLE_RUNS))
    def test_runs_read_no_controls_table(self, tmp_path, monkeypatch, argv):
        from smpsolve.forward import PathEnsemble

        def table(self):
            raise AssertionError("the whole controls table was built")

        monkeypatch.setattr(PathEnsemble, "controls", property(table))
        # the run reaches its verdicts; at 1500 paths some of them are not
        # those of the default size, which is not what this test is about
        assert _run(*argv, "--paths", "1500", "--seed", "3", "--out", str(tmp_path)) in (0, 2, 3)
        assert (tmp_path / "results.json").exists()
        name = argv[argv.index("-e") + 1]
        assert (tmp_path / f"{name}_controls.smp").exists() == ("--dump-paths" in argv)


class TestArtifacts:
    def test_dump_paths_says_what_it_did_not_write(self, tmp_path, capsys):
        assert _run("run", "-e", "production", "--check", "assumptions", "--dump-paths", "--out", str(tmp_path)) == 0
        assert "note: --dump-paths wrote nothing" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["curves.csv", "reports.csv", "results.json"]
        out = tmp_path / "costs"
        code = _run(
            "run", "-e", "production", "--check", "positivity",
            "--paths", "200", "--steps", "20", "--horizon", "2", "--dump-paths", "--out", str(out),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "note: --dump-paths wrote no costate" in err and "wrote nothing" not in err
        assert (out / "paths.csv").exists() and (out / "production_controls.smp").exists()
        assert not (out / "production_y.smp").exists() and not (out / "production_z.smp").exists()

    def test_a_costate_dump_prints_no_note(self, tmp_path, capsys):
        code = _run(
            "run", "-e", "consumption", "--check", "oracle",
            "--paths", "300", "--steps", "60", "--horizon", "3", "--dump-paths", "--out", str(tmp_path),
        )
        assert code == 0 and "note:" not in capsys.readouterr().err

    def test_dump_paths_writes_binary_and_csv(self, tmp_path):
        code = _run(
            "run", "-e", "consumption",
            "--check", "oracle",
            "--paths", "300", "--steps", "60", "--horizon", "3",
            "--dump-paths", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "paths.csv").exists()
        assert (tmp_path / "consumption_states.smp").exists()
        assert (tmp_path / "consumption_controls.smp").exists()
        assert (tmp_path / "consumption_y.smp").exists()
        # Z is not stored by the solve: the dump evaluates its surfaces at every node
        kind, z = read_array(tmp_path / "consumption_z.smp")
        assert kind == KIND_Z
        assert z.shape == (300, 60, 1, 1) and np.isfinite(z).all()

    def test_results_json_schema_fields(self, tmp_path):
        assert _run(
            "run", "-e", "production",
            "--check", "assumptions",
            "--out", str(tmp_path),
        ) == 0
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["schema"] == 1
        assert payload["experiment"] == "production"
        assert payload["metadata"]["command"] == "run"
        assert "generated_at" in payload["metadata"]
        # the environment: versions as strings, and the CPUs the run could use
        assert payload["metadata"]["python"] == platform.python_version()
        assert payload["metadata"]["numpy"] == np.__version__
        assert isinstance(payload["metadata"]["cpus"], int) and payload["metadata"]["cpus"] >= 1
