"""A generator-based discrete-event simulation kernel.

Minimal but complete: a time-ordered event heap, one-shot :class:`Event`
objects with callbacks, and :class:`Process` coroutines that ``yield``
either a :class:`Timeout` or an :class:`Event` to suspend.  The protocol
state machines in :mod:`repro.core` run as processes on this kernel.

Determinism: events scheduled for the same instant fire in scheduling
order (a monotonically increasing sequence number breaks heap ties), so
simulations are reproducible bit-for-bit given the same seeds.
"""

from __future__ import annotations

import heapq
from typing import (
    Any,
    Callable,
    Generator,
    List,
    Optional,
    Tuple,
)

from repro.errors import SimulationError
from repro.obs import current as _metrics
from repro.obs import names as _names

__all__ = ["Simulator", "Event", "Timeout", "Process"]


class Event:
    """A one-shot event: fires once with an optional value.

    Callbacks added after the event fired are invoked immediately, which
    lets processes wait on events without racing the trigger.
    """

    def __init__(self, simulator: "Simulator", name: str = "") -> None:
        self._simulator = simulator
        self._name = name
        self._fired = False
        self._value: Any = None
        self._callbacks: List[Callable[[Any], None]] = []

    @property
    def fired(self) -> bool:
        """Whether the event already triggered."""
        return self._fired

    @property
    def value(self) -> Any:
        """The value the event fired with (None before firing)."""
        return self._value

    def on_fire(self, callback: Callable[[Any], None]) -> None:
        """Register a callback; runs immediately if already fired."""
        if self._fired:
            callback(self._value)
        else:
            self._callbacks.append(callback)

    def succeed(self, value: Any = None) -> None:
        """Fire the event now."""
        if self._fired:
            raise SimulationError(f"event {self._name!r} fired twice")
        self._fired = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)

    def __repr__(self) -> str:
        state = "fired" if self._fired else "pending"
        return f"Event({self._name!r}, {state})"


class Timeout:
    """A yieldable delay for processes."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        # ``not >=`` also refuses NaN, which compares false both ways.
        if not delay >= 0:
            raise SimulationError(f"timeout must be >= 0, got {delay}")
        self.delay = float(delay)


ProcessGenerator = Generator[Any, Any, None]


class Process:
    """Wraps a generator as a simulation process.

    The generator may yield :class:`Timeout` instances (sleep) or
    :class:`Event` instances (wait; the event's value is sent back in).
    The process's own :attr:`done` event fires with the generator's
    return value when it finishes.
    """

    def __init__(
        self, simulator: "Simulator", generator: ProcessGenerator, name: str
    ) -> None:
        self._simulator = simulator
        self._generator = generator
        self._name = name
        self.done = Event(simulator, name=f"{name}.done")
        self._step(None)

    def _step(self, value: Any) -> None:
        try:
            yielded = self._generator.send(value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        if isinstance(yielded, Timeout):
            self._simulator.call_at(
                self._simulator.now + yielded.delay, self._step, None
            )
        elif isinstance(yielded, Event):
            yielded.on_fire(self._step)
        elif isinstance(yielded, Process):
            yielded.done.on_fire(self._step)
        else:
            raise SimulationError(
                f"process {self._name!r} yielded "
                f"{type(yielded).__name__}; expected Timeout, Event, "
                "or Process"
            )

    def __repr__(self) -> str:
        return f"Process({self._name!r})"


class Simulator:
    """The event loop: a heap of timestamped callbacks."""

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._events_executed = 0
        self._heap_high_water = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Callbacks executed by :meth:`run` over this simulator's life."""
        return self._events_executed

    @property
    def heap_high_water(self) -> int:
        """Largest number of simultaneously pending callbacks seen."""
        return self._heap_high_water

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        # ``not >=`` also refuses NaN: a NaN key breaks the heap order.
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule at {when} before now ({self._now})"
            )
        heapq.heappush(self._heap, (when, self._sequence, callback, args))
        self._sequence += 1
        if len(self._heap) > self._heap_high_water:
            self._heap_high_water = len(self._heap)

    def call_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self.call_at(self._now + delay, callback, *args)

    def event(self, name: str = "") -> Event:
        """Create a new pending event."""
        return Event(self, name)

    def process(
        self, generator: ProcessGenerator, name: str = "process"
    ) -> Process:
        """Start a generator as a process (runs its first step now)."""
        return Process(self, generator, name)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap is empty or time would pass ``until``.

        Returns the time of the last executed event (or ``until``).
        Execution work is aggregated locally and reported to the
        installed metrics registry once per call, so the hot loop pays
        nothing for observability.
        """
        executed = 0
        try:
            while self._heap:
                when, _, callback, args = self._heap[0]
                if until is not None and when > until:
                    self._now = float(until)
                    return self._now
                heapq.heappop(self._heap)
                self._now = when
                executed += 1
                callback(*args)
            if until is not None:
                self._now = max(self._now, float(until))
            return self._now
        finally:
            self._events_executed += executed
            registry = _metrics()
            if registry.enabled:
                registry.inc(_names.SIM_EVENTS_EXECUTED, executed)
                registry.gauge(_names.SIM_TIME, self._now)
                registry.gauge_max(
                    _names.SIM_HEAP_HIGH_WATER, self._heap_high_water
                )

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if idle."""
        return self._heap[0][0] if self._heap else None

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unexecuted callbacks."""
        return len(self._heap)
