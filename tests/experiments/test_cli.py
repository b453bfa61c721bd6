"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def launch(tmp_path, spec, name="spec"):
    """Launch ``spec`` (a dict) in-process; the store path."""
    spec_path = tmp_path / f"{name}.json"
    spec_path.write_text(json.dumps(spec))
    store = str(tmp_path / f"{name}.sqlite")
    assert main([
        "campaign", "launch", "--spec", str(spec_path), "--store", store,
        "--revision", "r", "--processes", "1",
    ]) == 0
    return store


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.runs == 5
        assert args.seed == 2011

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9"])

    @pytest.mark.parametrize("argv", [["figure4"], ["--chart", "table1"]])
    def test_figure_commands_and_top_level_chart_are_gone(self, argv):
        """A figure is a campaign spec; ``--chart`` is a query flag."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


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

    def test_figure4_small(self, tmp_path, capsys):
        # The Fig 4 spec at one run per point exercises the whole
        # pipeline end to end: launch, store, query.
        spec = json.loads((EXAMPLES / "fig4.json").read_text())
        spec["runs_per_point"] = 1
        store = launch(tmp_path, spec)
        capsys.readouterr()
        assert main(
            ["campaign", "query", "--store", store, "--campaign", "fig4"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("fig4 @ r")
        assert "p_jrsnd" in out and "combined_latency" in out
        assert len(out.splitlines()) == 3 + 12


QUERY = ["campaign", "query", "--store", "s.sqlite", "--campaign", "c"]


class TestChartFlag:
    def test_chart_flag_parsed(self):
        args = build_parser().parse_args(QUERY + ["--chart"])
        assert args.chart

    def test_chart_default_off(self):
        assert not build_parser().parse_args(QUERY).chart

    def test_one_chart_per_combination_of_the_other_axes(
        self, tmp_path, capsys
    ):
        """The x-axis is the first numeric axis with several values
        (``link_model`` is not numeric, ``n_compromised`` has one
        value); each link model gets its own chart."""
        store = launch(tmp_path, {
            "name": "nu", "seed": 1, "runs_per_point": 1, "base": "tiny",
            "grid": {
                "link_model": ["codes", "independent"],
                "n_compromised": [20],
                "nu": [1, 2, 3],
            },
        })
        capsys.readouterr()
        assert main([
            "campaign", "query", "--store", store, "--campaign", "nu",
            "--chart",
        ]) == 0
        titles = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("nu: probability")
        ]
        assert titles == [
            "nu: probability vs nu (link_model=codes, n_compromised=20)",
            "nu: probability vs nu "
            "(link_model=independent, n_compromised=20)",
        ]

    def test_chart_skips_an_empty_series(self, tmp_path, capsys):
        """``share_count`` = ``n_nodes`` with q = 0: no run has a
        D-NDP failure, so every point's P_M is ``nan``; the chart draws
        P_J (``+``, over P_D's ``o`` at 1.0) and leaves P_M (``x``)
        out."""
        store = launch(tmp_path, {
            "name": "empty", "seed": 1, "runs_per_point": 1, "base": "tiny",
            "grid": {
                "n_compromised": [0], "share_count": [120], "nu": [1, 2],
            },
        })
        capsys.readouterr()
        assert main([
            "campaign", "query", "--store", store, "--campaign", "empty",
            "--chart",
        ]) == 0
        out = capsys.readouterr().out
        assert "empty: probability vs nu" in out
        plot = [line.split("|", 1)[1] for line in out.splitlines()
                if " |" in line]
        assert sum(line.count("+") for line in plot) == 2
        assert not any("x" in line for line in plot)

    def test_no_chart_without_a_numeric_axis_to_sweep(
        self, tmp_path, capsys
    ):
        store = launch(tmp_path, {
            "name": "flat", "seed": 1, "runs_per_point": 1, "base": "tiny",
            "grid": {"strategy": ["reactive", "random"]},
        })
        capsys.readouterr()
        assert main([
            "campaign", "query", "--store", store, "--campaign", "flat",
            "--chart",
        ]) == 0
        out = capsys.readouterr().out
        assert "p_jrsnd" in out and "probability vs" not in out


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
                "table1",
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
