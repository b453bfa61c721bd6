"""The live metrics registry and its process-global installation point.

Instrumented layers never hold a registry themselves: they call
:func:`current` at the instant they have something to report and write
into whatever is installed.  By default that is :data:`NULL` — a
registry whose recording methods are no-ops and whose ``enabled`` flag
lets hot paths skip even the argument construction — so an
uninstrumented run pays nothing beyond one module-global read per
reporting site.

Install a real registry for the dynamic extent of a workload with::

    from repro import obs

    with obs.installed(obs.MetricsRegistry()) as reg:
        experiment.run(100)
    snapshot = reg.snapshot()

The global is per-process (worker processes start with :data:`NULL`),
which is why the experiment layer carries per-run snapshots inside
:class:`~repro.experiments.runner.RunResult` instead of relying on
shared state.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.obs.snapshot import (
    HistogramStat,
    MetricsSnapshot,
    TimerStat,
    TraceEvent,
)

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL",
    "current",
    "install",
    "installed",
]


class _Timer:
    """Context manager accumulating one timed section into a registry."""

    __slots__ = ("_registry", "_name", "_started")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        elapsed = time.perf_counter() - self._started
        self._registry.record_seconds(self._name, elapsed)


class MetricsRegistry:
    """Counters, gauges, timers, histograms, and a bounded event log.

    Parameters
    ----------
    max_events:
        Cap on retained trace events (oldest dropped first); 0 disables
        the event log entirely.
    """

    enabled = True

    def __init__(self, max_events: int = 1000) -> None:
        if max_events < 0:
            raise ConfigurationError(
                f"max_events must be non-negative, got {max_events}"
            )
        self._max_events = int(max_events)
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._max_gauges: Dict[str, float] = {}
        self._timer_counts: Dict[str, int] = {}
        self._timer_totals: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[float, int]] = {}
        self._events: List[TraceEvent] = []
        self._event_seq = 0

    # -- counters ------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + int(amount)

    def counter(self, name: str) -> int:
        """Current counter value (0 when never incremented)."""
        return self._counters.get(name, 0)

    # -- gauges --------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self._gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise high-water gauge ``name`` to ``value`` if higher."""
        value = float(value)
        if value > self._max_gauges.get(name, float("-inf")):
            self._max_gauges[name] = value

    # -- timers --------------------------------------------------------

    def timer(self, name: str) -> _Timer:
        """A ``with``-block that accumulates elapsed wall-clock time."""
        return _Timer(self, name)

    def record_seconds(self, name: str, seconds: float) -> None:
        """Record one already-measured duration under timer ``name``."""
        self._timer_counts[name] = self._timer_counts.get(name, 0) + 1
        self._timer_totals[name] = (
            self._timer_totals.get(name, 0.0) + float(seconds)
        )

    # -- histograms ----------------------------------------------------

    def observe(self, name: str, value: float, count: int = 1) -> None:
        """Tally ``count`` samples of ``value`` in histogram ``name``."""
        if count < 1:
            raise ConfigurationError(
                f"histogram count must be positive, got {count}"
            )
        tally = self._histograms.setdefault(name, {})
        value = float(value)
        tally[value] = tally.get(value, 0) + int(count)

    # -- structured trace events ---------------------------------------

    def event(self, category: str, **fields: Any) -> None:
        """Append a structured trace event (bounded ring)."""
        if self._max_events == 0:
            return
        self._events.append(
            TraceEvent(seq=self._event_seq, category=category,
                       fields=fields)
        )
        self._event_seq += 1
        if len(self._events) > self._max_events:
            del self._events[0]

    # -- aggregation ---------------------------------------------------

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Merge a snapshot (e.g. from a nested run) into this registry."""
        for name, value in snapshot.counters.items():
            self.inc(name, value)
        for name, value in snapshot.gauges.items():
            self.gauge(name, value)
        for name, value in snapshot.max_gauges.items():
            self.gauge_max(name, value)
        for name, stat in snapshot.timers.items():
            self._timer_counts[name] = (
                self._timer_counts.get(name, 0) + stat.count
            )
            self._timer_totals[name] = (
                self._timer_totals.get(name, 0.0) + stat.total_seconds
            )
        for name, stat in snapshot.histograms.items():
            for value, count in stat.counts:
                self.observe(name, value, count)
        for event in snapshot.events:
            self.event(event.category, **event.fields)

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current state into an immutable snapshot."""
        return MetricsSnapshot(
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            max_gauges=dict(self._max_gauges),
            timers={
                name: TimerStat(
                    count=self._timer_counts[name],
                    total_seconds=self._timer_totals[name],
                )
                for name in self._timer_counts
            },
            histograms={
                name: HistogramStat.from_tally(tally)
                for name, tally in self._histograms.items()
            },
            events=tuple(self._events),
        )

    def reset(self) -> None:
        """Drop all recorded state (the registry stays installed)."""
        self._counters.clear()
        self._gauges.clear()
        self._max_gauges.clear()
        self._timer_counts.clear()
        self._timer_totals.clear()
        self._histograms.clear()
        self._events.clear()
        self._event_seq = 0


class _NullTimer:
    """Reusable no-op timer for the null registry."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_TIMER = _NullTimer()


class NullRegistry(MetricsRegistry):
    """The default no-op sink: recording costs one method call, nothing
    is retained, and ``enabled`` is False so hot paths can skip even
    that."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(max_events=0)

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def timer(self, name: str) -> _NullTimer:  # type: ignore[override]
        return _NULL_TIMER

    def record_seconds(self, name: str, seconds: float) -> None:
        pass

    def observe(self, name: str, value: float, count: int = 1) -> None:
        pass

    def event(self, category: str, **fields: Any) -> None:
        pass

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        pass


NULL = NullRegistry()

_current: MetricsRegistry = NULL


def current() -> MetricsRegistry:
    """The registry instrumented code should report into right now."""
    return _current


def install(registry: Optional[MetricsRegistry]) -> None:
    """Make ``registry`` the process-global sink (``None`` → no-op)."""
    global _current
    _current = registry if registry is not None else NULL


@contextmanager
def installed(
    registry: MetricsRegistry,
) -> Iterator[MetricsRegistry]:
    """Install ``registry`` for the duration of a ``with`` block."""
    global _current
    previous = _current
    _current = registry
    try:
        yield registry
    finally:
        _current = previous
