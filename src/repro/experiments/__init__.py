"""The Monte Carlo experiment harness (Section VI-B).

:class:`~repro.experiments.runner.NetworkExperiment` reproduces the
authors' simulation setup — 2000 nodes in a 5000 x 5000 m field, 300 m
range, averages over independently seeded runs.  Every figure of the
evaluation section is a :mod:`repro.campaigns` spec over it
(``examples/fig2.json`` … ``examples/fig5.json``), run through the
worker pool into a results store and read back with ``campaign
query``.
"""

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
    "format_series_table",
    "ascii_chart",
    "ValidationPoint",
    "validate_theorem1_grid",
    "worst_deviation",
]
