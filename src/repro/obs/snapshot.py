"""Immutable metric snapshots and their JSON wire format.

A :class:`MetricsSnapshot` freezes the state of a
:class:`~repro.obs.registry.MetricsRegistry` — counters, gauges, timer
accumulators, histogram tallies, and the bounded trace-event log — into
a plain value object that can be compared, merged across runs or worker
processes, and round-tripped through JSON.  The schema is versioned
(``repro.obs/2``) so benchmark telemetry written by one revision can be
regressed against by later ones; ``repro.obs/1`` files, whose
histograms list every sample, still load.

Merge semantics (used to aggregate per-run snapshots into experiment
totals, and per-worker totals across processes):

- counters and timers **add**;
- histograms are ``value → count`` tallies, and their counts **add**;
- gauges take the **last** written value, except ``*_high_water`` /
  ``*_max`` style gauges which the registry records via ``gauge_max``
  and which merge with :func:`max`;
- trace events concatenate in merge order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["TraceEvent", "TimerStat", "HistogramStat", "MetricsSnapshot"]

SCHEMA = "repro.obs/2"
#: Schemas :meth:`MetricsSnapshot.from_dict` reads.
_READABLE_SCHEMAS = ("repro.obs/1", SCHEMA)


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace entry emitted by an instrumented layer."""

    seq: int
    category: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "category": self.category,
                "fields": dict(self.fields)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        return cls(
            seq=int(data["seq"]),
            category=str(data["category"]),
            fields=dict(data.get("fields", {})),
        )


@dataclass(frozen=True)
class TimerStat:
    """Accumulated wall-clock time under one timer name."""

    count: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> Optional[float]:
        """Mean duration per timed section, or None when never used."""
        return self.total_seconds / self.count if self.count else None

    def merged(self, other: "TimerStat") -> "TimerStat":
        return TimerStat(
            count=self.count + other.count,
            total_seconds=self.total_seconds + other.total_seconds,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "total_seconds": self.total_seconds}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TimerStat":
        return cls(
            count=int(data["count"]),
            total_seconds=float(data["total_seconds"]),
        )


@dataclass(frozen=True)
class HistogramStat:
    """The value → count tally recorded under one histogram name.

    ``counts`` holds ``(value, count)`` pairs in ascending value order,
    one per distinct value, each count positive.
    """

    counts: Tuple[Tuple[float, int], ...] = ()

    @classmethod
    def from_tally(cls, tally: Mapping[float, int]) -> "HistogramStat":
        """The stat of a ``value → count`` mapping."""
        return cls(counts=tuple(sorted(tally.items())))

    @property
    def count(self) -> int:
        return sum(n for _, n in self.counts)

    @property
    def total(self) -> float:
        return float(sum(value * n for value, n in self.counts))

    @property
    def minimum(self) -> Optional[float]:
        return self.counts[0][0] if self.counts else None

    @property
    def maximum(self) -> Optional[float]:
        return self.counts[-1][0] if self.counts else None

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.counts else None

    def merged(self, other: "HistogramStat") -> "HistogramStat":
        tally = dict(self.counts)
        for value, n in other.counts:
            tally[value] = tally.get(value, 0) + n
        return HistogramStat.from_tally(tally)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "counts": [[value, n] for value, n in self.counts],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HistogramStat":
        tally: Dict[float, int] = {}
        if "counts" in data:
            pairs = ((float(v), int(n)) for v, n in data["counts"])
        else:
            # ``repro.obs/1`` listed every sample.
            pairs = ((float(v), 1) for v in data.get("values", ()))
        for value, n in pairs:
            if n < 1:
                raise ConfigurationError(
                    f"histogram count must be positive, got {n}"
                )
            tally[value] = tally.get(value, 0) + n
        return cls.from_tally(tally)


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen view of a registry's state.

    Equality is structural, so two runs with identical seeds produce
    equal snapshots regardless of which process executed them (timers
    excepted — wall-clock time is inherently non-deterministic, which is
    why the experiment acceptance checks compare ``counters`` only).
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    max_gauges: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, TimerStat] = field(default_factory=dict)
    histograms: Dict[str, HistogramStat] = field(default_factory=dict)
    events: Tuple[TraceEvent, ...] = ()

    def counter(self, name: str) -> int:
        """Value of one counter (0 when never incremented)."""
        return self.counters.get(name, 0)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """This snapshot combined with ``other`` (see module docstring)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        gauges.update(other.gauges)
        max_gauges = dict(self.max_gauges)
        for name, value in other.max_gauges.items():
            max_gauges[name] = max(max_gauges.get(name, value), value)
        timers = dict(self.timers)
        for name, stat in other.timers.items():
            timers[name] = timers.get(name, TimerStat()).merged(stat)
        histograms = dict(self.histograms)
        for name, stat in other.histograms.items():
            histograms[name] = histograms.get(
                name, HistogramStat()
            ).merged(stat)
        return MetricsSnapshot(
            counters=counters,
            gauges=gauges,
            max_gauges=max_gauges,
            timers=timers,
            histograms=histograms,
            events=self.events + other.events,
        )

    @classmethod
    def merge_all(
        cls, snapshots: Iterable[Optional["MetricsSnapshot"]]
    ) -> "MetricsSnapshot":
        """Fold many (possibly ``None``) snapshots into one total."""
        total = cls()
        for snap in snapshots:
            if snap is not None:
                total = total.merge(snap)
        return total

    def deterministic(self) -> "MetricsSnapshot":
        """This snapshot with every wall-clock-derived field dropped.

        Counters, gauges, histograms, and trace events are pure
        functions of the seed; timer accumulators are not.  Persistent
        results stores (``repro.campaigns``) freeze the deterministic
        view so that a resumed campaign is bit-identical to an
        uninterrupted one and two runs of the same spec produce
        byte-equal artifacts.
        """
        if not self.timers:
            return self
        return MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            max_gauges=dict(self.max_gauges),
            timers={},
            histograms=dict(self.histograms),
            events=self.events,
        )

    # -- JSON wire format ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready dict form (stable key order via sorting)."""
        return {
            "schema": SCHEMA,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "max_gauges": {
                k: self.max_gauges[k] for k in sorted(self.max_gauges)
            },
            "timers": {
                k: self.timers[k].to_dict() for k in sorted(self.timers)
            },
            "histograms": {
                k: self.histograms[k].to_dict()
                for k in sorted(self.histograms)
            },
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize for ``--metrics-out`` files and CI artifacts."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSnapshot":
        schema = data.get("schema")
        if schema not in _READABLE_SCHEMAS:
            raise ConfigurationError(
                f"unsupported metrics schema {schema!r}; expected {SCHEMA!r}"
            )
        return cls(
            counters={str(k): int(v)
                      for k, v in data.get("counters", {}).items()},
            gauges={str(k): float(v)
                    for k, v in data.get("gauges", {}).items()},
            max_gauges={str(k): float(v)
                        for k, v in data.get("max_gauges", {}).items()},
            timers={str(k): TimerStat.from_dict(v)
                    for k, v in data.get("timers", {}).items()},
            histograms={str(k): HistogramStat.from_dict(v)
                        for k, v in data.get("histograms", {}).items()},
            events=tuple(TraceEvent.from_dict(e)
                         for e in data.get("events", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"metrics JSON is not parseable: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigurationError("metrics JSON must be an object")
        return cls.from_dict(data)
