"""Terminal charts for the figure campaigns.

No plotting stack is assumed offline; :func:`ascii_chart` renders
multi-series sweep rows as a fixed-size character grid with axes,
per-series markers and a legend — enough to *see* the crossovers and
knees the paper's figures show, straight from ``python -m repro
campaign query --chart``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive

__all__ = ["ascii_chart"]

_MARKERS = "ox+*#@%&"


def _axis_ticks(low: float, high: float, count: int) -> List[float]:
    if count < 2:
        raise ConfigurationError("need at least two ticks")
    span = high - low
    return [low + span * i / (count - 1) for i in range(count)]


def ascii_chart(
    rows: Sequence[Dict[str, float]],
    x: str,
    series: Sequence[str],
    width: int = 64,
    height: int = 18,
    title: str = "",
) -> str:
    """Render sweep rows as a character chart.

    Parameters
    ----------
    rows:
        Sweep rows (one dict per x-axis point).
    x:
        Key of the x-axis column.
    series:
        Keys of the y-series to draw (each gets its own marker; a
        non-finite value, such as an empty series' ``nan``, is not
        drawn).
    width, height:
        Plot area size in characters (excluding axes).
    """
    if not rows:
        raise ConfigurationError("no rows to chart")
    if not series:
        raise ConfigurationError("no series selected")
    if len(series) > len(_MARKERS):
        raise ConfigurationError(
            f"at most {len(_MARKERS)} series supported"
        )
    check_positive("width", width)
    check_positive("height", height)
    for key in (x, *series):
        if key not in rows[0]:
            raise ConfigurationError(f"unknown column {key!r}")

    xs = [float(row[x]) for row in rows]
    ys = [
        float(row[key]) for row in rows for key in series
        if math.isfinite(float(row[key]))
    ]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys, default=0.0), max(ys, default=0.0)
    if x_high == x_low:
        x_high = x_low + 1.0
    if y_high == y_low:
        y_high = y_low + 1.0
    # A little headroom so extremes don't sit on the frame.
    pad = 0.05 * (y_high - y_low)
    y_low -= pad
    y_high += pad

    grid = [[" "] * width for _ in range(height)]

    def place(x_value: float, y_value: float, marker: str) -> None:
        column = round(
            (x_value - x_low) / (x_high - x_low) * (width - 1)
        )
        row_ = round(
            (y_value - y_low) / (y_high - y_low) * (height - 1)
        )
        grid[height - 1 - row_][column] = marker

    for index, key in enumerate(series):
        marker = _MARKERS[index]
        for row in rows:
            if math.isfinite(float(row[key])):
                place(float(row[x]), float(row[key]), marker)

    lines: List[str] = []
    if title:
        lines.append(title)
    label_width = 9
    y_ticks = _axis_ticks(y_low, y_high, height)
    for i, grid_row in enumerate(grid):
        y_value = y_ticks[height - 1 - i]
        label = f"{y_value:>{label_width}.3f}" if i % 3 == 0 else (
            " " * label_width
        )
        lines.append(f"{label} |" + "".join(grid_row))
    lines.append(" " * label_width + "+" + "-" * width)
    x_ticks = _axis_ticks(x_low, x_high, 5)
    tick_labels = []
    for tick in x_ticks:
        column = round((tick - x_low) / (x_high - x_low) * (width - 1))
        tick_labels.append((column, f"{tick:g}"))
    # Extra margin so the last tick label is never clipped.
    axis_line = [" "] * (width + label_width + 10)
    for column, text in tick_labels:
        start = label_width + 1 + column
        for j, ch in enumerate(text):
            if start + j < len(axis_line):
                axis_line[start + j] = ch
    lines.append("".join(axis_line).rstrip())
    legend = "   ".join(
        f"{_MARKERS[i]} {key}" for i, key in enumerate(series)
    )
    lines.append(" " * (label_width + 2) + legend)
    return "\n".join(lines)
