"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator, Timeout


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_at(2.0, order.append, "b")
        sim.call_at(1.0, order.append, "a")
        sim.call_at(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_at_same_time(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.call_at(1.0, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        times = []
        sim.call_at(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5]
        assert sim.now == 1.5

    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, fired.append, 1)
        sim.call_at(5.0, fired.append, 5)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_resume_after_until(self):
        sim = Simulator()
        fired = []
        sim.call_at(5.0, fired.append, 5)
        sim.run(until=2.0)
        sim.run()
        assert fired == [5]

    def test_call_after(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: sim.call_after(0.5, lambda: None))
        sim.run()
        assert sim.now == 1.5

    def test_rejects_past_scheduling(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Simulator().call_after(-1.0, lambda: None)

    @pytest.mark.parametrize("schedule", ["call_at", "call_after"])
    def test_rejects_nan_time(self, schedule):
        """A NaN key compares false both ways and would run first,
        out of time order; it is refused and the heap keeps its order."""
        sim = Simulator()
        order = []
        with pytest.raises(SimulationError):
            getattr(sim, schedule)(float("nan"), order.append, "nan")
        sim.call_at(1.0, order.append, "one")
        sim.call_at(0.5, order.append, "half")
        sim.run()
        assert order == ["half", "one"]
        assert sim.now == 1.0

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() is None
        sim.call_at(3.0, lambda: None)
        assert sim.peek() == 3.0


class TestEvents:
    def test_callbacks_fire_with_value(self):
        sim = Simulator()
        event = sim.event("e")
        got = []
        event.on_fire(got.append)
        event.succeed(42)
        assert got == [42]
        assert event.fired
        assert event.value == 42

    def test_late_callback_fires_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("x")
        got = []
        event.on_fire(got.append)
        assert got == ["x"]

    def test_double_fire_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()


class TestProcesses:
    def test_timeout_sequencing(self):
        sim = Simulator()
        trail = []

        def proc():
            trail.append(sim.now)
            yield Timeout(1.0)
            trail.append(sim.now)
            yield Timeout(2.0)
            trail.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trail == [0.0, 1.0, 3.0]

    def test_wait_on_event(self):
        sim = Simulator()
        event = sim.event()
        got = []

        def waiter():
            value = yield event
            got.append((sim.now, value))

        sim.process(waiter())
        sim.call_at(2.0, event.succeed, "ping")
        sim.run()
        assert got == [(2.0, "ping")]

    def test_wait_on_process(self):
        sim = Simulator()
        trail = []

        def inner():
            yield Timeout(1.0)
            trail.append("inner-done")
            return "result"

        def outer():
            process = sim.process(inner(), "inner")
            yield process
            trail.append(("outer", process.done.value))

        sim.process(outer(), "outer")
        sim.run()
        assert trail == ["inner-done", ("outer", "result")]

    def test_done_event_value(self):
        sim = Simulator()

        def proc():
            yield Timeout(0.5)
            return 99

        process = sim.process(proc())
        sim.run()
        assert process.done.fired
        assert process.done.value == 99

    def test_invalid_yield_rejected(self):
        sim = Simulator()

        def bad():
            yield "not a timeout"

        with pytest.raises(SimulationError):
            sim.process(bad())

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_nan_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(float("nan"))

    def test_immediate_process_completion(self):
        sim = Simulator()

        def instant():
            return 7
            yield  # pragma: no cover

        process = sim.process(instant())
        assert process.done.fired
        assert process.done.value == 7


class TestEdgeCases:
    def test_until_boundary_event_executes(self):
        """An event scheduled exactly at ``until`` fires (the stop
        condition is strictly ``when > until``)."""
        sim = Simulator()
        fired = []
        sim.call_at(2.0, fired.append, "boundary")
        sim.call_at(2.0 + 1e-9, fired.append, "past")
        sim.run(until=2.0)
        assert fired == ["boundary"]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_process_yields_already_done_process(self):
        sim = Simulator()
        trail = []

        def instant():
            return "early"
            yield  # pragma: no cover

        def outer():
            done_process = sim.process(instant(), "instant")
            assert done_process.done.fired
            yield done_process
            trail.append((sim.now, done_process.done.value))

        sim.process(outer(), "outer")
        sim.run()
        assert trail == [(0.0, "early")]

    def test_peek_and_pending_after_partial_runs(self):
        sim = Simulator()
        for when in (1.0, 2.0, 3.0):
            sim.call_at(when, lambda: None)
        assert sim.pending == 3
        assert sim.peek() == 1.0
        sim.run(until=1.5)
        assert sim.pending == 2
        assert sim.peek() == 2.0
        sim.run()
        assert sim.pending == 0
        assert sim.peek() is None

    def test_run_on_empty_heap_with_until(self):
        sim = Simulator()
        assert sim.run(until=4.0) == 4.0
        assert sim.now == 4.0


class TestExecutionAccounting:
    def test_events_executed_accumulates(self):
        sim = Simulator()
        for when in (1.0, 2.0, 3.0):
            sim.call_at(when, lambda: None)
        sim.run(until=1.5)
        assert sim.events_executed == 1
        sim.run()
        assert sim.events_executed == 3

    def test_heap_high_water(self):
        sim = Simulator()
        for when in (1.0, 2.0, 3.0):
            sim.call_at(when, lambda: None)
        sim.run()
        # Rescheduling from inside callbacks never exceeded 3 pending.
        assert sim.heap_high_water == 3

    def test_metrics_reported_once_per_run(self):
        from repro.obs import MetricsRegistry, installed

        sim = Simulator()
        sim.call_at(1.0, lambda: sim.call_after(1.0, lambda: None))
        with installed(MetricsRegistry()) as registry:
            sim.run()
        snap = registry.snapshot()
        assert snap.counter("sim.events_executed") == 2
        assert snap.gauges["sim.time"] == 2.0
        assert snap.max_gauges["sim.heap_high_water"] == 1.0

    def test_no_registry_accounting_still_works(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 1
        assert sim.heap_high_water == 1
