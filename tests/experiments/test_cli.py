"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.runs == 5
        assert args.seed == 2011

    def test_figure5_options(self):
        args = build_parser().parse_args(
            ["figure5", "--q", "60", "--link-model", "codes"]
        )
        assert args.q == 60
        assert args.link_model == "codes"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9"])


class TestCommands:
    def test_theory_runs(self, capsys):
        assert main(["theory", "--q", "40"]) == 0
        out = capsys.readouterr().out
        assert "Theorems 1-4" in out
        assert "P_minus" in out

    def test_theory_latency_values(self, capsys):
        main(["theory"])
        out = capsys.readouterr().out
        # T_D at defaults ~ 1.70 s appears in the table.
        assert "1.70" in out

    def test_figure4_small(self, capsys):
        # One tiny run exercises the whole pipeline end to end.
        assert main(
            ["--runs", "1", "--seed", "1", "figure4", "--share-count", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "p_jrsnd" in out


class TestChartFlag:
    def test_chart_flag_parsed(self):
        args = build_parser().parse_args(["--chart", "figure2"])
        assert args.chart

    def test_chart_default_off(self):
        assert not build_parser().parse_args(["figure2"]).chart


class TestDsssCommand:
    def test_options_parsed(self):
        args = build_parser().parse_args(
            ["dsss", "--messages", "7", "--burst", "0.1"]
        )
        assert args.messages == 7
        assert args.burst == 0.1

    def test_defaults(self):
        args = build_parser().parse_args(["dsss"])
        assert args.messages == 100
        assert args.burst == 0.2

    def test_burst_recovered_and_counters_visible(
        self, tmp_path, capsys
    ):
        from repro.obs import MetricsSnapshot

        out = tmp_path / "metrics.json"
        assert main(
            ["--seed", "3", "--metrics-out", str(out),
             "dsss", "--messages", "10"]
        ) == 0
        text = capsys.readouterr().out
        # A 20% burst sits well inside the mu=1 erasure capacity, so
        # every HELLO decodes.
        assert "success_rate" in text
        assert "1.0000" in text
        snapshot = MetricsSnapshot.from_json(out.read_text())
        assert snapshot.counter("ecc.symbols_decoded") > 0
        assert snapshot.counter("cache.rs_codec.hits") > 0
        # Round two replays every waveform: one hit per miss.
        assert snapshot.counter("cache.waveform.misses") == 10
        assert snapshot.counter("cache.waveform.hits") == 10


class TestMetricsOut:
    def test_flag_parsed(self):
        args = build_parser().parse_args(
            ["--metrics-out", "m.json", "theory"]
        )
        assert args.metrics_out == "m.json"

    def test_default_off(self):
        assert build_parser().parse_args(["theory"]).metrics_out is None

    def test_snapshot_written_and_round_trips(self, tmp_path, capsys):
        from repro.obs import MetricsSnapshot

        out = tmp_path / "metrics.json"
        assert main(
            [
                "--runs", "1", "--seed", "1",
                "--metrics-out", str(out),
                "figure4", "--share-count", "40",
            ]
        ) == 0
        assert "metrics snapshot written" in capsys.readouterr().out
        snapshot = MetricsSnapshot.from_json(out.read_text())
        assert snapshot.counter("experiment.runs") > 0
        assert snapshot.counter("experiment.pairs") > 0
        assert "experiment.run_seconds" in snapshot.timers

    def test_no_flag_writes_nothing(self, tmp_path, capsys):
        from repro import obs

        main(["theory"])
        assert obs.current() is obs.NULL
        assert list(tmp_path.iterdir()) == []


class TestConfigurationErrors:
    def test_refusal_is_one_stderr_line_and_exit_code(self, tmp_path):
        """``python -m repro`` reports a ConfigurationError as one
        ``error:`` line with its own exit code, not a traceback."""
        import os
        import subprocess
        import sys

        import repro
        from repro.cli import EXIT_CONFIGURATION_ERROR

        typo = str(tmp_path / "typo.sqlite")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([
            os.path.dirname(os.path.dirname(repro.__file__)),
            env.get("PYTHONPATH", ""),
        ])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "status",
             "--store", typo],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert EXIT_CONFIGURATION_ERROR not in (0, 1, 2, 3)
        assert proc.returncode == EXIT_CONFIGURATION_ERROR
        assert proc.stdout == ""
        assert proc.stderr == f"error: no campaign store file at {typo}\n"

    def test_unopenable_store_path_is_refused(self, tmp_path, cli_refused):
        """A store path SQLite cannot open is a ConfigurationError that
        names the path, and nothing is created."""
        from repro.campaigns import CampaignSpec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(CampaignSpec(
            name="smoke", seed=1, runs_per_point=1, base="tiny"
        ).to_json())
        path = str(tmp_path / "nodir" / "x.sqlite")
        cli_refused([
            "campaign", "launch", "--spec", str(spec_path),
            "--store", path, "--revision", "r",
        ], f"cannot open campaign store {path}: unable to open")
        assert list(tmp_path.iterdir()) == [spec_path]
