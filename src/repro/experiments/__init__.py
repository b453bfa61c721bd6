"""The Monte Carlo experiment harness (Section VI-B).

:class:`~repro.experiments.runner.NetworkExperiment` reproduces the
authors' simulation setup — 2000 nodes in a 5000 x 5000 m field, 300 m
range, averages over independently seeded runs — and
:mod:`repro.experiments.figures` defines the exact parameter sweeps
behind every figure of the evaluation section.
"""

from repro.experiments.figures import (
    figure2_sweep,
    figure3a_sweep,
    figure3b_sweep,
    figure4_sweep,
    figure5_sweep,
)
from repro.experiments.charts import ascii_chart
from repro.experiments.reporting import format_series_table
from repro.experiments.validation import (
    ValidationPoint,
    validate_theorem1_grid,
    worst_deviation,
)
from repro.experiments.runner import (
    ExperimentResult,
    NetworkExperiment,
    RunResult,
)

__all__ = [
    "NetworkExperiment",
    "ExperimentResult",
    "RunResult",
    "figure2_sweep",
    "figure3a_sweep",
    "figure3b_sweep",
    "figure4_sweep",
    "figure5_sweep",
    "format_series_table",
    "ascii_chart",
    "ValidationPoint",
    "validate_theorem1_grid",
    "worst_deviation",
]
