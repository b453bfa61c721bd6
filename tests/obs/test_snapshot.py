"""Unit tests for snapshot merging and the JSON wire format."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    HistogramStat,
    MetricsRegistry,
    MetricsSnapshot,
    TimerStat,
    TraceEvent,
)


def _sample_snapshot() -> MetricsSnapshot:
    reg = MetricsRegistry()
    reg.inc("runs", 3)
    reg.inc("pairs", 120)
    reg.gauge("sim.time", 12.5)
    reg.gauge_max("sim.heap_high_water", 40)
    reg.record_seconds("run_seconds", 0.75)
    reg.observe("hops", 2.0)
    reg.observe("hops", 3.0)
    reg.event("revoked", code=7, counter=2)
    return reg.snapshot()


class TestMerge:
    def test_counters_add(self):
        a = MetricsSnapshot(counters={"x": 1, "y": 2})
        b = MetricsSnapshot(counters={"x": 10})
        merged = a.merge(b)
        assert merged.counters == {"x": 11, "y": 2}

    def test_counter_totals_commute(self):
        a = MetricsSnapshot(counters={"x": 1})
        b = MetricsSnapshot(counters={"x": 5, "z": 2})
        assert a.merge(b).counters == b.merge(a).counters

    def test_gauges_last_wins_max_gauges_max(self):
        a = MetricsSnapshot(gauges={"g": 1.0}, max_gauges={"m": 5.0})
        b = MetricsSnapshot(gauges={"g": 9.0}, max_gauges={"m": 2.0})
        merged = a.merge(b)
        assert merged.gauges["g"] == 9.0
        assert merged.max_gauges["m"] == 5.0

    def test_timers_add(self):
        a = MetricsSnapshot(timers={"t": TimerStat(1, 0.5)})
        b = MetricsSnapshot(timers={"t": TimerStat(2, 1.0)})
        stat = a.merge(b).timers["t"]
        assert stat.count == 3
        assert stat.total_seconds == pytest.approx(1.5)

    def test_histogram_counts_add(self):
        a = MetricsSnapshot(
            histograms={"h": HistogramStat(((1.0, 2), (3.0, 1)))}
        )
        b = MetricsSnapshot(
            histograms={"h": HistogramStat(((2.0, 4), (3.0, 5)))}
        )
        want = ((1.0, 2), (2.0, 4), (3.0, 6))
        assert a.merge(b).histograms["h"].counts == want
        assert b.merge(a).histograms["h"].counts == want

    def test_merge_all_skips_none(self):
        a = MetricsSnapshot(counters={"x": 1})
        total = MetricsSnapshot.merge_all([a, None, a])
        assert total.counter("x") == 2

    def test_merge_all_empty(self):
        assert MetricsSnapshot.merge_all([]) == MetricsSnapshot()


class TestJsonRoundTrip:
    def test_round_trip_identity(self):
        snap = _sample_snapshot()
        again = MetricsSnapshot.from_json(snap.to_json())
        assert again == snap

    def test_to_json_is_sorted_and_versioned(self):
        snap = _sample_snapshot()
        data = snap.to_dict()
        assert data["schema"] == "repro.obs/2"
        assert list(data["counters"]) == sorted(data["counters"])
        assert data["histograms"]["hops"]["counts"] == [[2.0, 1], [3.0, 1]]

    def test_schema_1_values_read_as_counts(self):
        # A ``repro.obs/1`` file lists every histogram sample in order.
        text = json.dumps({
            "schema": "repro.obs/1",
            "counters": {"runs": 2},
            "histograms": {
                "hops": {"count": 5, "total": 13.0, "min": 2.0,
                         "max": 4.0,
                         "values": [3.0, 2.0, 3.0, 4.0, 1.0]},
            },
        })
        snap = MetricsSnapshot.from_json(text)
        assert snap.counters == {"runs": 2}
        assert snap.histograms["hops"] == HistogramStat(
            ((1.0, 1), (2.0, 1), (3.0, 2), (4.0, 1))
        )
        again = MetricsSnapshot.from_json(snap.to_json())
        assert again == snap
        assert again.to_dict()["schema"] == "repro.obs/2"

    def test_event_fields_survive(self):
        snap = _sample_snapshot()
        again = MetricsSnapshot.from_json(snap.to_json())
        assert again.events == (
            TraceEvent(seq=0, category="revoked",
                       fields={"code": 7, "counter": 2}),
        )

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsSnapshot.from_json('{"schema": "repro.obs/999"}')

    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_histogram_count_rejected(self, count):
        text = json.dumps({
            "schema": "repro.obs/2",
            "histograms": {"h": {"counts": [[1.0, 2], [3.0, count]]}},
        })
        with pytest.raises(ConfigurationError):
            MetricsSnapshot.from_json(text)

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsSnapshot.from_json("not json")
        with pytest.raises(ConfigurationError):
            MetricsSnapshot.from_json('["a", "list"]')

    def test_empty_snapshot_round_trips(self):
        empty = MetricsSnapshot()
        assert MetricsSnapshot.from_json(empty.to_json()) == empty


class TestDerivedStats:
    def test_histogram_empty(self):
        stat = HistogramStat()
        assert stat.count == 0
        assert stat.minimum is None
        assert stat.maximum is None
        assert stat.mean is None

    def test_timer_empty_mean(self):
        assert TimerStat().mean_seconds is None

    def test_counter_accessor_default(self):
        assert MetricsSnapshot().counter("nope") == 0
