"""What ``campaign query`` prints: every series a paper figure plots.

The store holds runs, not figures.  :func:`query_rows` turns one
campaign's stored points into table rows at print time: the measured
probabilities, each with its 95% Student-t half-width, and the mean
degree, plus the Theorem 2/4 latencies at the point's config (the
paper's latency plots are these closed forms;
``tests/core/test_event_latency.py`` checks them against the event
simulator).  The CLI prints these rows and ``benchmarks/test_fig*.py``
assert the paper's shapes on them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.campaigns.spec import CampaignSpec
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentResult

__all__ = ["query_rows"]


def _estimate(result: ExperimentResult, kind: str) -> Tuple[float, float]:
    """Mean and 95% Student-t half-width of ``kind``'s per-run series;
    both ``nan`` when the series is empty (``mndp`` when no run had a
    D-NDP failure to recover)."""
    try:
        _mean, low, high = result.confidence_interval(kind)
    except ConfigurationError:
        return float("nan"), float("nan")
    return result.discovery_probability(kind), float(high - low) / 2


def query_rows(
    spec: CampaignSpec,
    results: Mapping[int, Tuple[Dict[str, Any], ExperimentResult]],
) -> List[Dict[str, Any]]:
    """One row per stored point of ``spec``, in point order.

    ``results`` is :meth:`CampaignStore.point_results` output for the
    campaign ``spec`` describes.  Each row holds the point index, its
    axis values, ``p_<kind>`` and its half-width ``p_<kind>_ci`` for
    ``dndp``/``mndp``/``jrsnd`` (both ``nan`` for an empty series),
    ``degree``, the sampled ``t_dndp``
    (``nan`` unless the spec samples latency),
    ``dndp_expected_latency``, ``mndp_expected_latency`` and
    ``combined_latency`` at ``spec.point_config``, and ``runs``.
    """
    # Imported here: the closed forms and scipy (through the interval)
    # stay off the campaign run path.
    from repro.analysis.combined import combined_latency
    from repro.analysis.dndp_theory import dndp_expected_latency
    from repro.analysis.mndp_theory import mndp_expected_latency

    points = spec.points()
    rows = []
    for point_index, (params, result) in sorted(results.items()):
        config = spec.point_config(points[point_index])
        row: Dict[str, Any] = {"point": point_index}
        row.update(params)
        for kind in ("dndp", "mndp", "jrsnd"):
            row[f"p_{kind}"], row[f"p_{kind}_ci"] = _estimate(result, kind)
        row.update(
            degree=result.mean_degree(),
            t_dndp=result.mean_dndp_latency() or float("nan"),
            dndp_expected_latency=dndp_expected_latency(config),
            mndp_expected_latency=mndp_expected_latency(config),
            combined_latency=combined_latency(config),
            runs=len(result.runs),
        )
        rows.append(row)
    return rows
