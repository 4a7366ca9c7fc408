"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cell_defaults(self):
        args = build_parser().parse_args(["cell"])
        assert args.dataset == "nyc"
        assert args.alpha == 1.0

    def test_sweep_parameter_choices(self):
        args = build_parser().parse_args(["sweep", "--parameter", "gamma"])
        assert args.parameter == "gamma"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--parameter", "bogus"])

    def test_removed_bitmap_storage_flag_rejected(self, capsys):
        """``--bitmap-storage`` is gone (one bitmap tier remains)."""
        build_parser().parse_args(["cell", "--coverage-chunk-size", "100"])
        for command in ("cell", "sweep"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--bitmap-storage", "ram"])
            assert "--bitmap-storage" in capsys.readouterr().err


class TestCommands:
    def test_example1_output(self, capsys):
        assert main(["example1"]) == 0
        out = capsys.readouterr().out
        assert "Strategy 1" in out
        assert "Strategy 2" in out
        assert "regret=13.25" in out
        assert "regret=0.00" in out

    def test_cell_runs_small(self, capsys):
        code = main(
            [
                "cell",
                "--billboards", "50",
                "--trajectories", "300",
                "--alpha", "0.6",
                "--p-avg", "0.1",
                "--methods", "g-order,g-global",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "g-order" in out
        assert "regret=" in out

    def test_sweep_runs_small(self, capsys):
        code = main(
            [
                "sweep",
                "--billboards", "50",
                "--trajectories", "300",
                "--p-avg", "0.1",
                "--methods", "g-global",
                "--parameter", "gamma",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep over gamma" in out
        assert "Runtime" in out

    def test_figure_runs_small(self, capsys, tmp_path):
        csv_path = tmp_path / "fig10.csv"
        code = main(
            [
                "figure", "fig10",
                "--billboards", "50",
                "--trajectories", "300",
                "--restarts", "0",
                "--seed", "2",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert csv_path.exists()

    def test_figure_unknown_id(self):
        with pytest.raises(ValueError, match="unknown figure"):
            main(["figure", "fig99", "--billboards", "50", "--trajectories", "300"])

    def test_figure_partial_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig10", "--billboards", "50"])

    def test_cell_obs_out_and_summary(self, capsys, tmp_path):
        from repro import obs

        log_path = tmp_path / "run.jsonl"
        code = main(
            [
                "cell",
                "--billboards", "40",
                "--trajectories", "250",
                "--p-avg", "0.1",
                "--methods", "g-global",
                "--restarts", "0",
                "--seed", "2",
                "--obs-out", str(log_path),
                "--obs-summary",
            ]
        )
        assert code == 0
        assert not obs.enabled()  # the CLI cleans up after itself
        out = capsys.readouterr().out
        assert "== observability summary ==" in out
        assert "solver.solves" in out
        lines = obs.read_jsonl(log_path)
        kinds = [line["event"] for line in lines]
        assert "span" in kinds and "solver" in kinds and "counters" in kinds
        counters = next(l for l in lines if l["event"] == "counters")["counters"]
        assert counters["solver.solves"] == 1
        assert counters["coverage.builds"] == 1

    def test_obs_env_variable_enables_collection(self, capsys, tmp_path, monkeypatch):
        from repro import obs

        log_path = tmp_path / "env-run.jsonl"
        monkeypatch.setenv(obs.OBS_OUT_ENV, str(log_path))
        code = main(
            [
                "cell",
                "--billboards", "40",
                "--trajectories", "250",
                "--p-avg", "0.1",
                "--methods", "g-order",
                "--restarts", "0",
                "--seed", "2",
            ]
        )
        assert code == 0
        assert log_path.exists()
        assert "wrote obs run log" in capsys.readouterr().out

    def test_datasets_table5(self, capsys):
        # Patch the bench scale down so the command is fast in tests.
        import repro.cli as cli_module

        original = cli_module.BENCH_SCALE
        cli_module.BENCH_SCALE = {"nyc": (30, 150), "sg": (60, 150)}
        try:
            assert main(["datasets", "--seed", "1"]) == 0
        finally:
            cli_module.BENCH_SCALE = original
        out = capsys.readouterr().out
        assert "NYC" in out and "SG" in out
        assert "AvgDistance" in out
