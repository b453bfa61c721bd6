"""The composable, seeded fault plan.

A :class:`FaultPlan` owns a list of :class:`FaultInjector` instances and
implements the medium's :class:`~repro.sim.medium.FaultHook` protocol by
composing their answers:

- a transmission is suppressed if *any* injector declares the sender
  dead (crash window) — otherwise every injector gets to inspect it
  (the burst jammer corrupts it here);
- a delivery is dropped if the receiver is dead or any injector drops
  it; otherwise the injectors' delays add up (reordering jitter + clock
  skew) and each duplicate contributes one extra copy.

All randomness comes from per-injector child streams of the plan's own
seed (via :class:`~repro.utils.rng.SeedSequencer`), so the plan is fully
reproducible and never touches the simulation's other rng streams.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.obs import NULL, MetricsRegistry
from repro.obs import names as _names
from repro.sim.engine import Simulator
from repro.sim.medium import RadioMedium, Transmission
from repro.utils.rng import SeedSequencer

__all__ = ["FaultInjector", "FaultPlan", "NullFaultPlan"]


class FaultInjector:
    """Base class for one fault mechanism; every hook is a no-op.

    Subclasses override the hooks they implement.  ``bind`` hands the
    injector its private rng and the simulator (for schedulable faults);
    it is called exactly once, when the owning plan is attached to a
    medium.
    """

    name = "injector"

    def bind(
        self, simulator: Simulator, rng: np.random.Generator
    ) -> None:
        """Receive the simulator and this injector's private stream."""

    def on_transmit(
        self, tx: Transmission, medium: RadioMedium, plan: "FaultPlan"
    ) -> None:
        """Inspect (e.g. jam) a transmission that is starting."""

    def alive(self, node: int, now: float) -> bool:
        """Whether ``node``'s radio is up at ``now``."""
        return True

    def drops(self, tx: Transmission, node: int, now: float) -> bool:
        """Whether this delivery is lost."""
        return False

    def delay(self, tx: Transmission, node: int, now: float) -> float:
        """Extra delivery latency in seconds (0 = on time)."""
        return 0.0

    def duplicate_delays(
        self, tx: Transmission, node: int, now: float
    ) -> Sequence[float]:
        """Offsets (relative to the primary copy) of duplicate copies."""
        return ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FaultPlan:
    """A seeded, composable schedule of faults.

    Parameters
    ----------
    injectors:
        The fault mechanisms to compose (order fixes the rng draw order
        and is part of the plan's deterministic identity).
    seed:
        Root of the plan's private randomness.
    """

    enabled = True

    def __init__(
        self,
        injectors: Sequence[FaultInjector] = (),
        seed: int = 0,
    ) -> None:
        self._injectors: Tuple[FaultInjector, ...] = tuple(injectors)
        self._seed = int(seed)
        self._bound = False
        self._metrics: MetricsRegistry = NULL

    @property
    def injectors(self) -> Tuple[FaultInjector, ...]:
        """The composed injectors, in draw order."""
        return self._injectors

    def count(self, name: str, amount: int = 1) -> None:
        """Count one fault event into the registry the plan is bound
        with (nothing is kept before :meth:`bind`)."""
        self._metrics.inc(name, amount)

    # -- FaultHook protocol ---------------------------------------------

    def bind(self, simulator: Simulator, metrics: MetricsRegistry) -> None:
        """Attach to a simulator and the registry the plan counts into;
        each injector gets its child stream."""
        if self._bound:
            return
        self._bound = True
        self._metrics = metrics
        seeds = SeedSequencer(self._seed).child("faults")
        for position, injector in enumerate(self._injectors):
            injector.bind(
                simulator, seeds.rng(f"{position}:{injector.name}")
            )

    def on_transmit(self, tx: Transmission, medium: RadioMedium) -> bool:
        for injector in self._injectors:
            if not injector.alive(tx.sender, tx.start):
                self.count(_names.FAULTS_TX_SUPPRESSED)
                return False
        for injector in self._injectors:
            injector.on_transmit(tx, medium, self)
        return True

    def delivery_actions(
        self, tx: Transmission, node: int, now: float
    ) -> Sequence[float]:
        for injector in self._injectors:
            if not injector.alive(node, now):
                self.count(_names.FAULTS_RX_CRASHED)
                return ()
        for injector in self._injectors:
            if injector.drops(tx, node, now):
                self.count(_names.FAULTS_DROPPED)
                return ()
        delay = 0.0
        extra: List[float] = []
        for injector in self._injectors:
            delay += injector.delay(tx, node, now)
            extra.extend(injector.duplicate_delays(tx, node, now))
        if delay > 0.0:
            self.count(_names.FAULTS_DELAYED)
        if extra:
            self.count(_names.FAULTS_DUPLICATED, len(extra))
        actions = [delay]
        actions.extend(delay + max(0.0, offset) for offset in extra)
        return actions

    def __repr__(self) -> str:
        names = ", ".join(i.name for i in self._injectors) or "empty"
        return f"FaultPlan({names}, seed={self._seed})"


class NullFaultPlan(FaultPlan):
    """The default, zero-overhead plan: all faults off.

    ``enabled`` is False, so the medium's hot paths skip the hook after
    one attribute check — running with a ``NullFaultPlan`` is
    bit-identical to running with no plan at all.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__((), seed=0)

    def on_transmit(self, tx: Transmission, medium: RadioMedium) -> bool:
        return True

    def delivery_actions(
        self, tx: Transmission, node: int, now: float
    ) -> Sequence[float]:
        return (0.0,)

    def __repr__(self) -> str:
        return "NullFaultPlan()"
