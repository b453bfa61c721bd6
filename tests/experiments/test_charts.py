"""Unit tests for the terminal chart renderer."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.charts import ascii_chart

ROWS = [
    {"m": 20.0, "p": 0.2, "q": 0.5},
    {"m": 60.0, "p": 0.5, "q": 0.9},
    {"m": 100.0, "p": 0.7, "q": 0.98},
]


class TestAsciiChart:
    def test_contains_markers_and_legend(self):
        chart = ascii_chart(ROWS, "m", ["p", "q"], title="demo")
        assert "demo" in chart
        assert "o p" in chart
        assert "x q" in chart
        body = chart.splitlines()
        assert any("o" in line for line in body[1:-2])
        assert any("x" in line for line in body[1:-2])

    def test_dimensions(self):
        chart = ascii_chart(ROWS, "m", ["p"], width=40, height=10)
        lines = chart.splitlines()
        # height rows + x-axis + tick labels + legend (no title)
        assert len(lines) == 10 + 3
        plot_lines = [line for line in lines if "|" in line]
        assert len(plot_lines) == 10
        assert all(len(line.split("|", 1)[1]) == 40 for line in plot_lines)

    def test_monotone_series_rises_left_to_right(self):
        chart = ascii_chart(ROWS, "m", ["p"], width=30, height=8)
        plot = [line.split("|", 1)[1] for line in chart.splitlines()
                if "|" in line]
        positions = []
        for column in range(30):
            for row, line in enumerate(plot):
                if line[column] == "o":
                    positions.append((column, row))
        # Later columns sit on earlier (higher) rows.
        columns = [c for c, _ in positions]
        rows_ = [r for _, r in positions]
        assert columns == sorted(columns)
        assert rows_ == sorted(rows_, reverse=True)

    def test_last_tick_not_clipped(self):
        chart = ascii_chart(ROWS, "m", ["p"])
        assert "100" in chart

    def test_flat_series_handled(self):
        flat = [{"x": 1.0, "y": 0.5}, {"x": 2.0, "y": 0.5}]
        chart = ascii_chart(flat, "x", ["y"])
        assert "o" in chart

    def test_non_finite_points_are_skipped(self):
        """A ``nan`` y (an empty series) is not drawn and does not set
        the y range; a series that is all ``nan`` draws nothing."""
        rows = [dict(row, q=float("nan")) for row in ROWS]
        chart = ascii_chart(rows, "m", ["p", "q"], width=30, height=8)
        plot = [line.split("|", 1)[1] for line in chart.splitlines()
                if "|" in line]
        assert sum(line.count("o") for line in plot) == 3
        assert not any("x" in line for line in plot)
        empty = ascii_chart(rows, "m", ["q"], width=30, height=8)
        assert not any(
            "o" in line.split("|", 1)[1]
            for line in empty.splitlines() if "|" in line
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ascii_chart([], "m", ["p"])
        with pytest.raises(ConfigurationError):
            ascii_chart(ROWS, "m", [])
        with pytest.raises(ConfigurationError):
            ascii_chart(ROWS, "m", ["nope"])
        with pytest.raises(ConfigurationError):
            ascii_chart(ROWS, "nope", ["p"])
        with pytest.raises(ConfigurationError):
            ascii_chart(ROWS, "m", list("abcdefghij"))
