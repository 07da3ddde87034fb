"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.app == "alex-16"
        assert args.method == "gp+a"
        assert args.resource is None  # _run_solve applies the 70 % default

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table2"])
        assert args.name == "table2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSolveCommand:
    def test_solve_prints_allocation(self, capsys):
        exit_code = main(["solve", "--app", "alex-16", "--resource", "75", "--method", "gp+a"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "II=" in captured
        assert "FPGA 1" in captured

    def test_solve_infeasible_returns_nonzero(self, capsys):
        exit_code = main(["solve", "--app", "alex-16", "--resource", "12", "--method", "gp+a"])
        assert exit_code == 1
        assert "no allocation found" in capsys.readouterr().out

    def test_solve_with_explicit_fpgas(self, capsys):
        exit_code = main(["solve", "--app", "alex-16", "--fpgas", "3", "--resource", "70"])
        assert exit_code == 0
        assert "FPGA 3" in capsys.readouterr().out


class TestExperimentCommand:
    def test_table_experiments(self, capsys):
        for name in ("table2", "table3", "table4"):
            assert main(["experiment", name]) == 0
        output = capsys.readouterr().out
        assert "Table 4" in output

    def test_figure2_quick_to_csv(self, tmp_path, capsys):
        output = tmp_path / "figure2.csv"
        exit_code = main(["experiment", "figure2", "--quick", "--output", str(output)])
        assert exit_code == 0
        content = output.read_text()
        assert content.startswith("series,")
        assert "T0" in content

    def test_figure6_quick(self, capsys):
        exit_code = main(["experiment", "figure6", "--quick"])
        assert exit_code == 0
        assert "SLACK" in capsys.readouterr().out


class TestPlatformSpec:
    def test_solve_with_platform_spec(self, tmp_path, capsys):
        from repro.platform.presets import mixed_fleet
        from repro.workloads.serialization import save_platform

        spec = save_platform(
            mixed_fleet(1, 1, resource_limit_percent=70.0), tmp_path / "fleet.json"
        )
        exit_code = main(
            ["solve", "--app", "alex-16", "--platform-spec", str(spec), "--method", "minlp"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "xcku115" in captured
        assert "II =" in captured

    def test_platform_spec_conflicts_with_fpgas(self, tmp_path, capsys):
        from repro.platform.presets import aws_f1
        from repro.workloads.serialization import save_platform

        spec = save_platform(aws_f1(num_fpgas=2), tmp_path / "plain.json")
        exit_code = main(
            ["solve", "--platform-spec", str(spec), "--fpgas", "4"]
        )
        assert exit_code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_hetero_skew_experiment_quick(self, tmp_path, capsys):
        output = tmp_path / "skew.csv"
        exit_code = main(["experiment", "hetero-skew", "--quick", "--output", str(output)])
        assert exit_code == 0
        assert output.exists()
        header = output.read_text().splitlines()[0]
        assert "class skew" in header


class TestTraceGateBaseline:
    @staticmethod
    def write_snapshot(path, unix_time, mean):
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        key = "benchmarks/test_runtime_comparison.py::test_runtime_table"
        path.write_text(json.dumps({"unix_time": unix_time, "benchmarks": {key: {"mean": mean}}}))

    def test_untracked_newer_snapshot_leaves_budget_unchanged(self, tmp_path, monkeypatch):
        import subprocess

        from repro.cli import _trace_gate_baseline

        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q"], check=True)
        tracked = tmp_path / "benchmarks" / "results" / "BENCH_old.json"
        self.write_snapshot(tracked, unix_time=1.0, mean=0.010)
        subprocess.run(["git", "add", str(tracked)], check=True)
        before = _trace_gate_baseline()
        # A local benchmark run leaves a newer, slower, untracked snapshot.
        self.write_snapshot(tracked.with_name("BENCH_local.json"), unix_time=2.0, mean=0.050)
        assert _trace_gate_baseline() == before
        assert before[0].name == "BENCH_old.json"
        assert before[1] == pytest.approx(0.013)

    def test_no_tracked_snapshot_fails_with_a_message(self, tmp_path, monkeypatch, capsys):
        import subprocess

        from repro.cli import _run_trace_gate

        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q"], check=True)
        self.write_snapshot(tmp_path / "benchmarks" / "results" / "BENCH_local.json", 2.0, 0.05)
        assert _run_trace_gate() == 1
        assert "no git-tracked" in capsys.readouterr().err
