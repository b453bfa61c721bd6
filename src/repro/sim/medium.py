"""A code-addressed radio medium at message granularity.

The chip-level channel in :mod:`repro.dsss` is faithful but too slow for
2000-node fields, so the network simulations use this message-level
medium: a transmission is (sender, position, code key, frame, timing),
and its fate at each in-range receiver is decided by the DSSS/ECC rules
measured at chip level —

- a receiver obtains the frame iff it knows the code (monitors it in
  real time, or will scan it in a buffered window) and the fraction of
  the message jammed *with the same code* stays within the ECC tolerance
  ``mu / (1 + mu)``;
- jamming with any other code is ignored (negligible cross-correlation
  at ``N = 512``, verified by the chip-level tests);
- concurrent legitimate transmissions under different codes do not
  interact.

Jammers register as observers and are told about every transmission
start, mirroring the paper's "J can always recover chip synchronization
without de-spreading".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Tuple,
)

import numpy as np

from repro.ecc.codec import erasure_tolerance
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.field import Position, RectangularField
from repro.sim.links import DiskLinkModel, LinkModel
from repro.utils.validation import check_fraction, check_positive

__all__ = ["Transmission", "RadioMedium"]

CodeKey = Hashable


@dataclass
class Transmission:
    """One on-air message.

    Attributes
    ----------
    sender:
        Node index of the transmitter.
    position:
        Transmitter position at send time.
    code_key:
        Pool index (int) or session label identifying the spread code.
    frame:
        Arbitrary protocol payload (opaque to the medium).
    start, duration:
        Timing in simulated seconds.
    jam_fractions:
        Accumulated per-jam (fraction, effectiveness) entries recorded
        against this transmission.
    """

    sender: int
    position: Position
    code_key: CodeKey
    frame: object
    start: float
    duration: float
    jam_fractions: List[float] = field(default_factory=list)

    @property
    def end(self) -> float:
        """Completion time of the transmission."""
        return self.start + self.duration

    def jammed_fraction(self) -> float:
        """Total corrupted fraction (capped at 1)."""
        return min(1.0, sum(self.jam_fractions))


class JammerObserver(Protocol):
    """Anything wanting transmission-start notifications."""

    def on_transmission(self, tx: Transmission, medium: "RadioMedium") -> None:
        """Called when a transmission starts."""


DeliveryCallback = Callable[[Transmission], None]


class RadioMedium:
    """Registers listeners and routes message-level transmissions.

    Parameters
    ----------
    simulator:
        The event kernel (deliveries are scheduled on it).
    field:
        Geometry for range checks.
    mu:
        ECC expansion parameter; a message survives if its jammed
        fraction is below ``mu / (1 + mu)``.
    link_model, link_rng:
        Reception model (the paper's unit disk by default) and the
        stream a probabilistic model samples from.
    """

    def __init__(
        self,
        simulator: Simulator,
        field_: RectangularField,
        mu: float,
        link_model: Optional[LinkModel] = None,
        link_rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._simulator = simulator
        self._field = field_
        self._tolerance = erasure_tolerance(mu)
        # Default: the paper's unit-disk reception.  A probabilistic
        # model (e.g. LogNormalShadowingModel) needs an rng to sample
        # per-delivery shadowing.
        self._link_model: LinkModel = (
            link_model
            if link_model is not None
            else DiskLinkModel(field_.tx_range)
        )
        self._link_rng = (
            link_rng
            if link_rng is not None
            else np.random.default_rng(0)  # jrsnd: noqa(JRS011) -- fixed-seed fallback for mediums built without a seed tree; rewiring through utils.rng would shift every pinned link-loss stream
        )
        # listener -> (position getter, code -> callback)
        self._listeners: Dict[
            int, Tuple[Callable[[], Position], Dict[CodeKey, DeliveryCallback]]
        ] = {}
        self._jammers: List[JammerObserver] = []
        self.delivered_count = 0
        self.jammed_count = 0

    @property
    def tolerance(self) -> float:
        """Corruption fraction above which a message is lost."""
        return self._tolerance

    def register_node(
        self, node: int, position_getter: Callable[[], Position]
    ) -> None:
        """Register a node with a callable returning its current position."""
        if node in self._listeners:
            raise SimulationError(f"node {node} registered twice")
        self._listeners[node] = (position_getter, {})

    def listen(
        self, node: int, code_key: CodeKey, callback: DeliveryCallback
    ) -> None:
        """Start delivering messages under ``code_key`` to ``node``."""
        self._require_node(node)
        self._listeners[node][1][code_key] = callback

    def stop_listening(self, node: int, code_key: CodeKey) -> None:
        """Stop delivering ``code_key`` messages to ``node`` (idempotent)."""
        self._require_node(node)
        self._listeners[node][1].pop(code_key, None)

    def is_listening(self, node: int, code_key: CodeKey) -> bool:
        """Whether ``node`` currently receives ``code_key`` messages."""
        self._require_node(node)
        return code_key in self._listeners[node][1]

    def add_jammer(self, jammer: JammerObserver) -> None:
        """Register a jammer for transmission-start notifications."""
        self._jammers.append(jammer)

    def transmit(
        self,
        sender: int,
        code_key: CodeKey,
        frame: object,
        duration: float,
        position: Optional[Position] = None,
    ) -> Transmission:
        """Start a transmission; completion is scheduled automatically.

        ``position`` defaults to the sender's registered position.
        """
        check_positive("duration", duration)
        if position is None:
            self._require_node(sender)
            position = self._listeners[sender][0]()
        tx = Transmission(
            sender=sender,
            position=position,
            code_key=code_key,
            frame=frame,
            start=self._simulator.now,
            duration=float(duration),
        )
        for jammer in self._jammers:
            jammer.on_transmission(tx, self)
        self._simulator.call_at(tx.end, self._complete, tx)
        return tx

    def jam(
        self,
        tx: Transmission,
        code_key: CodeKey,
        fraction: float,
        effectiveness: float = 1.0,
    ) -> bool:
        """Record a jamming attempt against ``tx``.

        Only attempts with the *matching* code corrupt anything.
        ``fraction`` is the share of the message the jam signal overlaps;
        ``effectiveness`` scales it (chip-level experiments show a
        random-data jam at equal power erases about half the overlapped
        bits; the paper's pessimistic model corresponds to 1.0).
        Returns whether the jam had any effect.
        """
        check_fraction("fraction", fraction)
        check_fraction("effectiveness", effectiveness)
        if code_key != tx.code_key:
            return False
        tx.jam_fractions.append(fraction * effectiveness)
        return True

    def _complete(self, tx: Transmission) -> None:
        lost = tx.jammed_fraction() > self._tolerance
        if lost:
            self.jammed_count += 1
            return
        for node, (position_getter, codes) in list(self._listeners.items()):
            if node == tx.sender:
                continue
            callback = codes.get(tx.code_key)
            if callback is None:
                continue
            distance = self._field.distance(position_getter(), tx.position)
            if not self._link_model.delivered(distance, self._link_rng):
                continue
            self.delivered_count += 1
            callback(tx)

    def _require_node(self, node: int) -> None:
        if node not in self._listeners:
            raise SimulationError(f"node {node} is not registered")
