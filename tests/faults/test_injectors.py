"""Unit tests for the fault injectors and the composing plan."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.faults import (
    BurstJammer,
    ClockSkew,
    Duplicator,
    FaultPlan,
    MessageDrop,
    NodeChurn,
    NullFaultPlan,
    Reorderer,
)
from repro.utils.rng import derive_rng


class _StubTx:
    """Just enough of a Transmission for the injector hooks."""

    def __init__(self, sender=0, start=0.0, end=1.0, code_key=7):
        self.sender = sender
        self.start = start
        self.end = end
        self.duration = end - start
        self.code_key = code_key
        self.frame = object()


class _StubMedium:
    def __init__(self):
        self.jams = []

    def jam(self, tx, code_key, fraction):
        self.jams.append((code_key, fraction))
        return True


class TestBurstJammer:
    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            BurstJammer([(2.0, 1.0)])

    def test_periodic_schedule(self):
        jammer = BurstJammer.periodic(
            start=1.0, period=10.0, burst=2.0, count=3
        )
        assert jammer.windows == (
            (1.0, 3.0), (11.0, 13.0), (21.0, 23.0)
        )

    def test_overlap_fraction_jams_matching_share(self):
        jammer = BurstJammer([(0.5, 0.75)])
        plan = FaultPlan([jammer], seed=1)
        metrics = MetricsRegistry()
        plan.bind(None, metrics)
        medium = _StubMedium()
        tx = _StubTx(start=0.0, end=1.0)
        jammer.on_transmit(tx, medium, plan)
        assert medium.jams == [(7, pytest.approx(0.25))]
        assert metrics.counter("faults.burst_jammed") == 1

    def test_no_overlap_no_jam(self):
        jammer = BurstJammer([(5.0, 6.0)])
        medium = _StubMedium()
        jammer.on_transmit(
            _StubTx(start=0.0, end=1.0), medium, FaultPlan([jammer])
        )
        assert medium.jams == []


class TestMessageDrop:
    def test_extremes(self):
        rng = derive_rng(1, "drop")
        never = MessageDrop(0.0)
        never.bind(None, rng)
        always = MessageDrop(1.0)
        always.bind(None, rng)
        tx = _StubTx()
        assert not never.drops(tx, 1, 0.0)
        assert always.drops(tx, 1, 0.0)

    def test_targeted_filters(self):
        rng = derive_rng(1, "drop")
        drop = MessageDrop(1.0, senders=[3], receivers=[4])
        drop.bind(None, rng)
        assert drop.drops(_StubTx(sender=3), 4, 0.0)
        assert not drop.drops(_StubTx(sender=9), 4, 0.0)
        assert not drop.drops(_StubTx(sender=3), 9, 0.0)


class TestDuplicatorReorderer:
    def test_duplicator_emits_gap(self):
        dup = Duplicator(1.0, gap=0.5)
        dup.bind(None, derive_rng(1, "dup"))
        assert dup.duplicate_delays(_StubTx(), 0, 0.0) == (0.5,)
        silent = Duplicator(0.0, gap=0.5)
        silent.bind(None, derive_rng(1, "dup"))
        assert silent.duplicate_delays(_StubTx(), 0, 0.0) == ()

    def test_reorderer_delay_bounded(self):
        reorder = Reorderer(1.0, max_delay=0.25)
        reorder.bind(None, derive_rng(1, "re"))
        delays = [reorder.delay(_StubTx(), 0, 0.0) for _ in range(50)]
        assert all(0.0 <= d <= 0.25 for d in delays)
        assert any(d > 0.0 for d in delays)


class TestNodeChurn:
    def test_explicit_windows(self):
        churn = NodeChurn([(2, 1.0, 3.0), (2, 5.0, 6.0)])
        assert churn.alive(2, 0.5)
        assert not churn.alive(2, 1.0)   # boundary: down at `down`
        assert not churn.alive(2, 2.9)
        assert churn.alive(2, 3.0)       # boundary: up at `up`
        assert not churn.alive(2, 5.5)
        assert churn.alive(3, 2.0)       # other nodes unaffected

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NodeChurn([(0, 3.0, 1.0)])

    def test_random_schedule_is_seed_deterministic(self):
        a = NodeChurn.random([0, 1], horizon=50.0,
                             mean_uptime=10.0, mean_downtime=2.0)
        b = NodeChurn.random([0, 1], horizon=50.0,
                             mean_uptime=10.0, mean_downtime=2.0)
        a.bind(None, derive_rng(9, "churn"))
        b.bind(None, derive_rng(9, "churn"))
        assert a.outages(0) == b.outages(0)
        assert a.outages(1) == b.outages(1)
        for node in (0, 1):
            for down, up in a.outages(node):
                assert 0.0 <= down < up <= 50.0


class TestClockSkew:
    def test_per_node_lag_is_query_order_independent(self):
        a = ClockSkew(max_skew=1e-3, max_drift=1e-6)
        b = ClockSkew(max_skew=1e-3, max_drift=1e-6)
        a.bind(None, derive_rng(4, "skew"))
        b.bind(None, derive_rng(4, "skew"))
        # Query in opposite orders: same answers.
        forward = [a.node_skew(n) for n in range(5)]
        backward = [b.node_skew(n) for n in reversed(range(5))]
        assert forward == list(reversed(backward))

    def test_delay_capped(self):
        skew = ClockSkew(max_skew=1e-3, max_drift=1.0, max_delay=2e-3)
        skew.bind(None, derive_rng(4, "skew"))
        assert skew.delay(_StubTx(), 0, now=1e9) == pytest.approx(2e-3)


class TestFaultPlan:
    def test_dead_sender_suppresses_transmission(self):
        churn = NodeChurn([(0, 0.0, 10.0)])
        plan = FaultPlan([churn], seed=0)
        metrics = MetricsRegistry()
        plan.bind(None, metrics)
        assert not plan.on_transmit(_StubTx(sender=0, start=5.0), None)
        assert metrics.counter("faults.tx_suppressed") == 1
        assert plan.on_transmit(_StubTx(sender=1, start=5.0), None)

    def test_dead_receiver_drops_delivery(self):
        churn = NodeChurn([(3, 0.0, 10.0)])
        plan = FaultPlan([churn], seed=0)
        metrics = MetricsRegistry()
        plan.bind(None, metrics)
        assert plan.delivery_actions(_StubTx(), 3, 5.0) == ()
        assert metrics.counter("faults.rx_crashed") == 1

    def test_delays_compose_additively(self):
        plan = FaultPlan(
            [ClockSkew(max_skew=1e-3), Duplicator(1.0, gap=0.5)],
            seed=2,
        )
        metrics = MetricsRegistry()
        plan.bind(None, metrics)
        actions = plan.delivery_actions(_StubTx(), 0, 0.0)
        assert len(actions) == 2
        lag = actions[0]
        assert 0.0 <= lag <= 1e-3
        assert actions[1] == pytest.approx(lag + 0.5)
        assert metrics.counter("faults.duplicated") == 1

    def test_same_seed_same_draws(self):
        def sample(seed):
            plan = FaultPlan([MessageDrop(0.5)], seed=seed)
            plan.bind(None, MetricsRegistry())
            return [
                plan.delivery_actions(_StubTx(), 0, 0.0)
                for _ in range(64)
            ]

        assert sample(7) == sample(7)
        assert sample(7) != sample(8)

    def test_null_plan_is_disabled_and_transparent(self):
        null = NullFaultPlan()
        assert null.enabled is False
        assert null.delivery_actions(_StubTx(), 0, 0.0) == (0.0,)
        assert null.on_transmit(_StubTx(), None)
