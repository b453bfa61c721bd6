"""Safety invariants checked during and after chaos runs.

The :class:`InvariantChecker` watches the kernel clock as a
:class:`~repro.sim.engine.SimObserver` and audits a finished
:class:`~repro.experiments.scenarios.EventNetwork` for the properties no
fault schedule may break:

- **monotone sim clock** — executed event timestamps never decrease;
- **no false neighbors** — every directed logical link points at a peer
  within physical transmission range (faults may *lose* neighbors,
  never invent them);
- **no orphaned/wedged sessions** — after the stale-session GC, every
  session is ESTABLISHED, FAILED, or younger than the staleness bound;
- **monitor conservation** — each node's real-time monitoring refcounts
  equal exactly the union of monitors its live sessions hold (no leak,
  no double release), and FAILED sessions hold none;
- **counter conservation** — the global logical-link count equals
  established(dndp) + established(mndp) − expired.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.dndp import SessionState
from repro.obs import names as _names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenarios import EventNetwork
    from repro.sim.engine import Simulator

__all__ = ["InvariantChecker", "InvariantViolation"]

# Monotonicity slack for float timestamps; the heap guarantees ordering,
# so any regression beyond rounding is a real kernel bug.
_CLOCK_EPSILON = 1e-12

# Keep the violation list bounded: one broken invariant firing per event
# must not flood memory during a long soak.
_MAX_RECORDED = 50


@dataclass(frozen=True)
class InvariantViolation:
    """One detected invariant breach."""

    name: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.name}] {self.detail}"


class InvariantChecker:
    """Collects invariant violations across a chaos run.

    Attach to the kernel with :meth:`attach` before running, then call
    :meth:`check_network` once the run (and the final GC sweep) is done.
    ``violations`` holds everything found; an empty list is a pass.
    """

    def __init__(self) -> None:
        self.violations: List[InvariantViolation] = []
        self.events_seen = 0
        self._last_time: Optional[float] = None

    # -- SimObserver -----------------------------------------------------

    def on_event(self, when: float) -> None:
        """Per-event clock check (monotone, non-negative)."""
        self.events_seen += 1
        if self._last_time is not None and (
            when < self._last_time - _CLOCK_EPSILON
        ):
            self._record(
                "monotone-clock",
                f"event at t={when} after t={self._last_time}",
            )
        self._last_time = when

    def attach(self, simulator: "Simulator") -> "InvariantChecker":
        """Install on ``simulator`` and return self (chainable)."""
        simulator.set_observer(self)
        return self

    # -- post-run audit --------------------------------------------------

    def check_network(self, net: "EventNetwork") -> List[InvariantViolation]:
        """Audit a finished event network; returns the new violations."""
        before = len(self.violations)
        self._check_false_neighbors(net)
        self._check_sessions(net)
        self._check_counter_conservation(net)
        return self.violations[before:]

    def _check_false_neighbors(self, net: "EventNetwork") -> None:
        by_id = {node.node_id: node for node in net.nodes}
        for node in net.nodes:
            for peer in node.logical_neighbors:
                peer_node = by_id.get(peer)
                if peer_node is None:
                    self._record(
                        "false-neighbor",
                        f"node {node.index} lists unknown peer {peer!r}",
                    )
                    continue
                distance = net.field.distance(
                    node.position, peer_node.position
                )
                if distance > net.config.tx_range + 1e-9:
                    self._record(
                        "false-neighbor",
                        f"node {node.index} lists node "
                        f"{peer_node.index} at {distance:.1f} m "
                        f"(> range {net.config.tx_range:.1f} m)",
                    )

    def _check_sessions(self, net: "EventNetwork") -> None:
        for node in net.nodes:
            for peer, state in node.wedged_sessions():
                self._record(
                    "wedged-session",
                    f"node {node.index} stuck in {state.value} with "
                    f"{peer!r} past the staleness bound",
                )
            expected: Counter = Counter()
            for peer, session in node.sessions().items():
                if (
                    session.state is SessionState.FAILED
                    and session.monitored
                ):
                    self._record(
                        "monitor-leak",
                        f"node {node.index}: FAILED session with "
                        f"{peer!r} still monitors {session.monitored}",
                    )
                expected.update(session.monitored)
            actual = Counter(node.monitor_counts())
            if expected != actual:
                self._record(
                    "monitor-conservation",
                    f"node {node.index}: refcounts {dict(actual)} != "
                    f"session monitors {dict(expected)}",
                )

    def _check_counter_conservation(self, net: "EventNetwork") -> None:
        links = sum(len(node.logical_neighbors) for node in net.nodes)
        metrics = net.metrics
        established = metrics.counter(
            _names.DNDP_ESTABLISHED
        ) + metrics.counter(_names.MNDP_ESTABLISHED)
        expired = metrics.counter(_names.NEIGHBORS_EXPIRED)
        if links != established - expired:
            self._record(
                "counter-conservation",
                f"{links} directed logical links but "
                f"established({established}) - expired({expired}) = "
                f"{established - expired}",
            )

    def _record(self, name: str, detail: str) -> None:
        if len(self.violations) < _MAX_RECORDED:
            self.violations.append(InvariantViolation(name, detail))
