"""Command line behavior: exit codes, config handling, artifacts."""
import json
import re
import shlex
from pathlib import Path

import pytest

from smpsolve.cli import _build_parser, main
from smpsolve.experiments import _GENERIC_CHECKS, list_experiments

README = Path(__file__).resolve().parents[1] / "README.md"


def _strip_metadata(path):
    payload = json.loads(path.read_text())
    payload.pop("metadata", None)
    return json.dumps(payload, sort_keys=True)


def _run(*argv):
    return main(list(argv))


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


class TestCheckAliases:
    def test_cost_compare_spelling(self, tmp_path):
        code = _run(
            "run", "-e", "consumption",
            "--check", "cost_compare",
            "--paths", "400", "--steps", "100", "--horizon", "10",
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "results.json").read_text())
        assert {r["check"] for r in payload["reports"]} == {"cost_dominance"}

    def test_consistency_spelling(self, tmp_path):
        code = _run(
            "run", "-e", "logistic",
            "--check", "consistency",
            "--paths", "400", "--steps", "40", "--horizon", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "results.json").read_text())
        assert {r["check"] for r in payload["reports"]} == {"cylinder_consistency"}

    def test_check_unavailable_for_experiment(self, tmp_path, capsys):
        # cylinder consistency belongs to the fixed-point model; asking for
        # it elsewhere is an error rather than a silent no-op
        code = _run(
            "run", "-e", "consumption", "--check", "consistency", "--out", str(tmp_path)
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

    def test_check_lists_match_the_registry(self):
        text = README.read_text()
        generic = re.search(r"generic checks \(([^)]*)\)", text).group(1)
        assert set(re.findall(r"`(\w+)`", generic)) == set(_GENERIC_CHECKS)
        for definition in list_experiments():
            line = re.search(rf"^- `{definition.name}`: (`\w+`(?:, `\w+`)*)$", text, re.M).group(1)
            assert set(re.findall(r"`(\w+)`", line)) == set(definition.checks), definition.name


class TestArtifacts:
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
        assert (tmp_path / "consumption_z.smp").exists()

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
