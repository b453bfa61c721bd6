"""Tests of the benchmark's own arithmetic and wiring.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import layers
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def span(name, start, end, parent=None, run_id=None):
    return [name, start, end, parent, run_id]


def test_self_time_subtracts_nested_children():
    trace = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 9.0, 0),
        span("c", 6.0, 7.0, 2),
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    trace = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 8.0, 0)]
    assert spans.self_times(trace)[0] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    trace = [span("root", 0.0, 4.0), span("a", 2.0, 6.0, 0)]
    assert spans.self_times(trace)[0] == pytest.approx(2.0)


def test_layer_self_times_sum_to_root_wall():
    rng = random.Random(3)
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    names = ["x", "y", "z"]

    def grow(depth):
        index = tracer.begin(rng.choice(names))
        for _ in range(rng.randint(0, 3) if depth < 4 else 0):
            clock.now += rng.random()
            grow(depth + 1)
        clock.now += rng.random()
        tracer.end(index)

    for _ in range(5):
        clock.now += rng.random()  # gaps between roots count for nothing
        grow(0)
    table = spans.layer_table(tracer.spans)
    total = sum(row["self"] for row in table.values())
    assert total == pytest.approx(spans.root_wall(tracer.spans))
    assert sum(row["count"] for row in table.values()) == len(tracer.spans)


def test_tracer_links_parents_and_inherits_run_ids():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    outer = tracer.begin("outer", "run-1")
    inner = tracer.begin("inner")
    clock.now = 1.0
    with pytest.raises(RuntimeError):
        tracer.end(outer)
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.spans[inner][3] == outer
    assert tracer.spans[inner][4] == "run-1"
    assert tracer.spans[outer][3] is None


def test_carve_sweep_moves_time_without_changing_the_total():
    table = {
        "experiments.run_once": {"count": 2, "busy": 10.0, "self": 6.0},
        "dndp.pair_success_probability": {"count": 4, "busy": 1.0, "self": 1.0},
        "mndp.discover": {"count": 2, "busy": 3.0, "self": 3.0},
    }
    before = sum(row["self"] for row in table.values())
    spans.carve_sweep(table, sweep_seconds=4.0, sweep_count=2)
    assert "dndp.pair_success_probability" not in table
    assert table["dndp.sweep"] == {"count": 2, "busy": 4.0, "self": 4.0}
    assert table["experiments.run_once"]["self"] == pytest.approx(3.0)
    assert sum(row["self"] for row in table.values()) == pytest.approx(before)


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1200, 99.1667, 10), (96, 89.5833, 10), (20, 50.0, 10), (5, 60.0, 2)],
)
def test_tail_percentile_keeps_ten_items_beyond(n, percentile, beyond):
    items = [float(i) for i in range(n)]
    got_percentile, value, got_beyond = run.tail_percentile(items)
    assert got_percentile == pytest.approx(percentile, abs=1e-3)
    assert got_beyond == beyond
    assert sum(1 for item in items if item > value) == beyond


def test_importtime_split_sums_to_the_repro_total():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |     numpy.core",
        "import time:        30 |         80 |   numpy",
        "import time:        20 |         20 |     scipy.stats",
        "import time:        40 |         60 |   scipy",
        "import time:        15 |         15 |   json",
        "import time:         5 |        160 | repro",
    ]
    values, slowest = run.parse_importtime(lines)
    assert values["setup.import_s"] == pytest.approx(160e-6)
    assert values["setup.import_numpy_s"] == pytest.approx(80e-6)
    assert values["setup.import_scipy_s"] == pytest.approx(60e-6)
    assert values["setup.import_other_s"] == pytest.approx(15e-6)
    assert values["setup.import_repro_s"] == pytest.approx(5e-6)
    assert slowest[0] == ("numpy.core", pytest.approx(50e-6))


def test_benchmark_json_names_every_metric():
    bench = layers.load_benchmark()
    assert [m["name"] for m in bench["per_layer"]] == list(layers.LAYERS)
    gated = [name for name in run.WORKLOADS if name != "smallshard-campaign"]
    assert [w["name"] for w in bench["workloads"]] == gated


def test_shims_record_a_run_and_uninstall_restores_the_originals():
    pytest.importorskip("numpy")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core.config import JRSNDConfig
    from repro.experiments import runner
    from repro.sim.field import RectangularField

    before = (runner.NetworkExperiment.run_once, RectangularField.neighbor_pairs,
              runner.uniform_positions)
    config = JRSNDConfig(
        n_nodes=5, codes_per_node=3, share_count=3, n_compromised=0,
        field_width=400.0, field_height=400.0, tx_range=300.0, rho=1e-9,
    )
    tracer = spans.Tracer()
    spans.install()
    try:
        spans.activate(tracer)
        runner.NetworkExperiment(config, seed=1).run_once(0)
    finally:
        spans.activate(None)
        spans.uninstall()
    after = (runner.NetworkExperiment.run_once, RectangularField.neighbor_pairs,
             runner.uniform_positions)
    assert after == before
    names = [s[0] for s in tracer.spans]
    assert names[0] == "experiments.run_once"
    assert {"sim.neighbor_pairs", "predistribution.assign", "mndp.discover"} <= set(names)
    assert all(s[3] == 0 for s in tracer.spans[1:])
    assert len({s[4] for s in tracer.spans}) == 1


def test_exits_non_zero_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         "table1-chipless", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
