"""Unit tests for the live metrics registry and its installation point."""

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import NULL, MetricsRegistry, NullRegistry, current, installed


class TestCounters:
    def test_inc_and_read(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a") == 5
        assert reg.counter("missing") == 0

    def test_snapshot_counters(self):
        reg = MetricsRegistry()
        reg.inc("x", 2)
        assert reg.snapshot().counters == {"x": 2}


class TestGauges:
    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("t", 1.0)
        reg.gauge("t", 2.5)
        assert reg.snapshot().gauges == {"t": 2.5}

    def test_gauge_max_keeps_high_water(self):
        reg = MetricsRegistry()
        reg.gauge_max("hw", 3.0)
        reg.gauge_max("hw", 1.0)
        reg.gauge_max("hw", 7.0)
        assert reg.snapshot().max_gauges == {"hw": 7.0}


class TestTimers:
    def test_timer_accumulates(self):
        reg = MetricsRegistry()
        with reg.timer("work"):
            pass
        with reg.timer("work"):
            pass
        stat = reg.snapshot().timers["work"]
        assert stat.count == 2
        assert stat.total_seconds >= 0.0
        assert stat.mean_seconds is not None

    def test_record_seconds_direct(self):
        reg = MetricsRegistry()
        reg.record_seconds("io", 0.5)
        reg.record_seconds("io", 1.5)
        stat = reg.snapshot().timers["io"]
        assert stat.count == 2
        assert stat.total_seconds == pytest.approx(2.0)
        assert stat.mean_seconds == pytest.approx(1.0)


class TestHistograms:
    def test_observe_series(self):
        reg = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            reg.observe("h", value)
        stat = reg.snapshot().histograms["h"]
        assert stat.count == 3
        assert stat.total == pytest.approx(6.0)
        assert stat.minimum == 1.0
        assert stat.maximum == 3.0
        assert stat.mean == pytest.approx(2.0)

    def test_observe_tallies_counts(self):
        reg = MetricsRegistry()
        reg.observe("h", 3, count=4)
        reg.observe("h", 1.0)
        reg.observe("h", 3.0)
        stat = reg.snapshot().histograms["h"]
        assert stat.counts == ((1.0, 1), (3.0, 5))
        assert stat.count == 6
        assert stat.total == pytest.approx(16.0)

    @pytest.mark.parametrize("count", [0, -2])
    def test_non_positive_count_rejected(self, count):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.observe("h", 1.0, count=count)
        assert reg.snapshot().histograms == {}


class TestEvents:
    def test_bounded_ring(self):
        reg = MetricsRegistry(max_events=2)
        reg.event("a", n=1)
        reg.event("b", n=2)
        reg.event("c", n=3)
        events = reg.snapshot().events
        assert [e.category for e in events] == ["b", "c"]
        assert events[-1].fields == {"n": 3}
        # Sequence numbers keep counting past evictions.
        assert events[-1].seq == 2

    def test_zero_disables(self):
        reg = MetricsRegistry(max_events=0)
        reg.event("a")
        assert reg.snapshot().events == ()

    def test_negative_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry(max_events=-1)


class TestAbsorbAndReset:
    def test_absorb_merges_all_kinds(self):
        child = MetricsRegistry()
        child.inc("c", 2)
        child.gauge("g", 1.0)
        child.gauge_max("m", 9.0)
        child.record_seconds("t", 0.25)
        child.observe("h", 4.0)
        child.observe("h", 2.0, count=3)
        child.event("e", k="v")
        parent = MetricsRegistry()
        parent.inc("c", 1)
        parent.gauge_max("m", 3.0)
        parent.observe("h", 4.0)
        parent.absorb(child.snapshot())
        snap = parent.snapshot()
        assert snap.counter("c") == 3
        assert snap.gauges["g"] == 1.0
        assert snap.max_gauges["m"] == 9.0
        assert snap.timers["t"].count == 1
        assert snap.histograms["h"].counts == ((2.0, 3), (4.0, 2))
        assert snap.events[0].category == "e"

    def test_reset_clears(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("h", 1.0)
        reg.event("e")
        reg.reset()
        snap = reg.snapshot()
        assert snap.counters == {}
        assert snap.histograms == {}
        assert snap.events == ()


class TestNullRegistry:
    def test_records_nothing(self):
        null = NullRegistry()
        null.inc("c")
        null.gauge("g", 1.0)
        null.gauge_max("m", 1.0)
        null.record_seconds("t", 1.0)
        null.observe("h", 1.0)
        null.event("e")
        with null.timer("t2"):
            pass
        snap = null.snapshot()
        assert snap.counters == {}
        assert snap.timers == {}
        assert not null.enabled

    def test_absorb_is_noop(self):
        child = MetricsRegistry()
        child.inc("c")
        NULL.absorb(child.snapshot())
        assert NULL.snapshot().counters == {}


class TestInstallation:
    def test_default_is_null(self):
        assert current() is NULL

    def test_installed_restores_previous(self):
        reg = MetricsRegistry()
        with installed(reg) as active:
            assert current() is reg
            assert active is reg
        assert current() is NULL

    def test_installed_restores_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with installed(reg):
                raise RuntimeError("boom")
        assert current() is NULL

    def test_install_none_restores_null(self):
        reg = MetricsRegistry()
        obs.install(reg)
        try:
            assert current() is reg
        finally:
            obs.install(None)
        assert current() is NULL

    def test_nesting(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with installed(outer):
            with installed(inner):
                current().inc("x")
            current().inc("y")
        assert inner.counter("x") == 1
        assert outer.counter("y") == 1
        assert outer.counter("x") == 0
