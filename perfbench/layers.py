"""Per-layer metrics of the traced run, and what each should move.

Every layer is named by the module whose public call the span shims wrap
(see ``spans.SHIM_TARGETS``).  Times are self seconds per Monte Carlo
run completed in the traced window; counts are per run too, so a value
does not depend on how many runs fitted in the window.

The last field of each ``LAYERS`` entry records, before any
optimisation is measured, which end-to-end metric a gain in that layer
should move and on which workload; a workload it does not name is
expected not to move.  Later performance changes cite these by name.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

#: The benchmark definition at the repository root.
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")

T1, F45 = "table1-chipless", "fig45-campaign"
#: Not in BENCHMARK.json: its shard times spread too far between runs on a
#: shared two-core host to gate on, but its traced run shows these layers.
SMALL = "smallshard-campaign (ungated)"

#: name -> (span rows it reads, prediction).  Units and better-directions
#: are BENCHMARK.json's (see :func:`units`).
LAYERS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "sim.neighbor_pairs_s": (("sim.neighbor_pairs",), f"runs_per_s on {T1} and {F45}"),
    "sim.uniform_positions_s": (("sim.uniform_positions",),
                                f"runs_per_s on {T1} and {F45}, barely"),
    "sim.pairs": ((), "input size: constant unless the topology model changes"),
    "predistribution.assign_s": (("predistribution.assign",),
                                 f"runs_per_s on {T1} and {F45}; nothing on {SMALL}"),
    "adversary.compromise_s": (("adversary.compromise_random", "adversary.from_compromise"),
                               f"runs_per_s on {T1} and {F45}, barely"),
    "dndp.sweep_s": ((), f"runs_per_s and item_s_p50 on {T1} only"),
    "mndp.add_links_s": (("mndp.add_links",), f"runs_per_s on {F45}, a little on {T1}"),
    "mndp.discover_s": (("mndp.discover",), f"runs_per_s on {F45}, a little on {T1}"),
    "mndp.pairs_attempted": ((), f"runs_per_s on {F45}, a little on {T1}"),
    "mndp.pairs_recovered": ((), f"runs_per_s on {F45}, a little on {T1}"),
    "mndp.recovery_ratio": ((), f"runs_per_s on {F45}, a little on {T1}"),
    "experiments.run_self_s": (("experiments.run_once",), f"runs_per_s on {T1} and {F45}"),
    "experiments.collect_outcomes_s": (("experiments.collect_outcomes",),
                                       f"item_s_p50 on {SMALL}, barely"),
    "pool.submit_s": (("pool.submit",),
                      f"runs_per_s and item_s_p50 on {SMALL}; barely {F45}"),
    "pool.wait_s": (("pool.wait",), f"runs_per_s and item_s_p50 on {SMALL}; barely {F45}"),
    "pool.worker_loop_s": (("pool.worker_loop",),
                           f"runs_per_s on {F45} (one worker idles while jobs run "
                           f"in order); runs_per_s and item_s_p50 on {SMALL}"),
    "pool.tasks_dispatched": ((), f"runs_per_s and item_s_p50 on {SMALL}; barely {F45}"),
    "pool.warm_hit_ratio": ((), f"runs_per_s and item_s_p50 on {SMALL}; barely {F45}"),
    "campaigns.write_shard_s": (("campaigns.write_shard",),
                                f"item_s_p50 on {SMALL}; barely {F45}"),
    "campaigns.store_commits": ((), f"item_s_p50 on {SMALL}; barely {F45}"),
    "campaigns.canonical_digest_s": (("campaigns.canonical_digest",),
                                     f"runs_per_s on {SMALL}, barely"),
    "campaigns.run_campaign_s": (("campaigns.run_campaign",), f"runs_per_s on {SMALL}"),
    "setup.import_s": ((), "setup_s on every workload"),
    "setup.import_scipy_s": ((), "setup_s on every workload"),
    "setup.import_numpy_s": ((), "setup_s on every workload"),
    "setup.import_repro_s": ((), "setup_s on every workload"),
    "setup.import_other_s": ((), "setup_s on every workload"),
}

#: Counter read for each count metric, per run.
COUNTERS = {
    "sim.pairs": "experiment.pairs",
    "mndp.pairs_attempted": "mndp.pairs_attempted",
    "mndp.pairs_recovered": "mndp.pairs_recovered",
    "pool.tasks_dispatched": "pool.tasks_dispatched",
    "campaigns.store_commits": "campaigns.store_commits",
}


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one BENCHMARK.json section
    (``end_to_end`` or ``per_layer``)."""
    return {metric["name"]: metric["unit"] for metric in load_benchmark()[section]}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: Dict[str, Any], imports: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values from one traced child's output."""
    runs = trace["runs_traced"]
    rows: Dict[str, Dict[str, float]] = {}
    rows.update(trace["parent"]["layers"])
    rows.update(trace["workers"]["layers"])
    counters = trace["counters"]

    def self_per_run(*names: str) -> float:
        return sum(rows[name]["self"] for name in names if name in rows) / runs

    values: Dict[str, float] = {}
    for metric, (names, _) in LAYERS.items():
        if names:
            values[metric] = self_per_run(*names)
    for metric, counter in COUNTERS.items():
        values[metric] = counters.get(counter, 0) / runs
    values["mndp.recovery_ratio"] = _ratio(
        counters.get("mndp.pairs_recovered", 0), counters.get("mndp.pairs_attempted", 0)
    )
    hits = counters.get("pool.warm_hits", 0)
    values["pool.warm_hit_ratio"] = _ratio(hits, hits + counters.get("pool.warm_misses", 0))
    # The chipless sweep has its own timer; on the message model it is not
    # separable from run_once's own time, so both names read that time.
    values["dndp.sweep_s"] = (
        self_per_run("dndp.sweep") if trace["sweep_timer"] else values["experiments.run_self_s"]
    )
    values.update(imports)
    return values


def report_rows(
    layers: Dict[str, Dict[str, float]], wall: float
) -> Tuple[List[Tuple[str, int, float, float, float]], float]:
    """Rows ``(name, count, busy, self, share)`` by self time, and the
    sum of self times (equal to ``wall`` up to rounding)."""
    rows = sorted(layers.items(), key=lambda item: -item[1]["self"])
    total = sum(row["self"] for _, row in rows)
    return [
        (name, int(row["count"]), row["busy"], row["self"], _ratio(row["self"], wall))
        for name, row in rows
    ], total

