"""Chaos soak scenarios: seeded fault plans with invariant auditing.

:func:`run_chaos` builds an event network with a
:class:`~repro.faults.FaultPlan` attached to the medium, drives periodic
discovery plus the session garbage collector under the plan for a fixed
simulated duration, and audits the final state with an
:class:`~repro.faults.InvariantChecker`.  The point is not throughput
but *graceful degradation*: however hostile the schedule, the run must
terminate, no node may list a false neighbor, and no session or monitor
refcount may leak.

:func:`default_chaos_plan` composes the standard soak mix — chip-burst
jamming windows, probabilistic drop, duplicate and reordered delivery,
node churn and per-node clock skew — from plain knobs, which is also
what the ``chaos`` CLI subcommand exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import JRSNDConfig
from repro.obs import current as _metrics
from repro.obs import names as _names
from repro.experiments.scenarios import build_event_network
from repro.faults import (
    BurstJammer,
    ClockSkew,
    Duplicator,
    FaultPlan,
    InvariantChecker,
    InvariantViolation,
    MessageDrop,
    NodeChurn,
    Reorderer,
)

__all__ = ["ChaosReport", "default_chaos_plan", "run_chaos"]


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one chaos soak; ``counters`` are the network's
    (``net.metrics``: node and ``faults.*`` counts alike)."""

    seed: int
    duration: float
    terminated: bool
    events: int
    logical_links: int
    sessions_gced: int
    violations: Tuple[InvariantViolation, ...]
    counters: Dict[str, int]

    @property
    def ok(self) -> bool:
        """True when the run terminated with zero invariant violations."""
        return self.terminated and not self.violations

    def summary_lines(self) -> Tuple[str, ...]:
        """Human-readable report lines for the CLI."""
        lines = [
            f"chaos soak: seed={self.seed} duration={self.duration:g}s "
            f"events={self.events} links={self.logical_links}",
            f"sessions gc'd: {self.sessions_gced}",
        ]
        for label, prefix in (
            ("faults injected", _names.FAULTS_PREFIX),
            ("recovery", _names.RETRY_PREFIX),
        ):
            counts = ", ".join(
                f"{name[len(prefix):]}={value}"
                for name, value in sorted(self.counters.items())
                if name.startswith(prefix)
            )
            if counts:
                lines.append(f"{label}: {counts}")
        if self.violations:
            lines.append(f"INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  {violation}" for violation in self.violations)
        else:
            lines.append("invariants: all hold")
        return tuple(lines)


def default_chaos_plan(
    config: JRSNDConfig,
    seed: int,
    duration: float,
    drop: float = 0.05,
    burst: float = 0.5,
    burst_period: float = 5.0,
    churn: bool = True,
    skew: float = 1e-3,
    duplicate: float = 0.02,
    reorder: float = 0.02,
    reorder_delay: float = 5e-3,
) -> FaultPlan:
    """The standard soak mix; pass 0 / ``False`` to disable a fault.

    Defaults compose all six injector types: periodic chip-burst jam
    windows, 5% message drop, 2% duplication, 2% reordering, random
    exponential node churn, and ~1 ms per-node clock skew.
    """
    injectors = []
    if burst > 0.0 and burst_period > 0.0:
        count = max(1, int(duration // burst_period))
        injectors.append(
            BurstJammer.periodic(
                start=0.5 * burst_period,
                period=burst_period,
                burst=burst,
                count=count,
            )
        )
    if drop > 0.0:
        injectors.append(MessageDrop(drop))
    if duplicate > 0.0:
        injectors.append(Duplicator(duplicate, gap=2e-3))
    if reorder > 0.0:
        injectors.append(Reorderer(reorder, max_delay=reorder_delay))
    if churn:
        injectors.append(
            NodeChurn.random(
                nodes=range(config.n_nodes),
                horizon=duration,
                mean_uptime=max(duration / 3.0, 1.0),
                mean_downtime=max(duration / 12.0, 0.5),
            )
        )
    if skew > 0.0:
        injectors.append(ClockSkew(max_skew=skew))
    return FaultPlan(injectors, seed=seed)


def chaos_config(n_nodes: int = 8) -> JRSNDConfig:
    """A small, fast deployment suited to event-level chaos soaks."""
    return JRSNDConfig(
        n_nodes=n_nodes,
        codes_per_node=3,
        share_count=3,
        n_compromised=0,
        field_width=500.0,
        field_height=500.0,
        tx_range=300.0,
        rho=1e-9,
    )


def run_chaos(
    config: JRSNDConfig,
    seed: int,
    duration: float = 30.0,
    plan: Optional[FaultPlan] = None,
    discovery_period: float = 10.0,
    gc_interval: float = 5.0,
    mndp: bool = True,
) -> ChaosReport:
    """Run one invariant-checked chaos soak and return its report.

    ``plan=None`` composes :func:`default_chaos_plan`; pass an explicit
    plan (e.g. :class:`~repro.faults.NullFaultPlan`) to control the mix.
    The network runs randomized periodic discovery and the per-node
    session GC for ``duration`` simulated seconds, then a final GC
    sweep precedes the invariant audit so only genuinely wedged state
    can fail the session checks.  The network's registry is then
    absorbed once into the installed :mod:`repro.obs` registry, which is
    how ``--metrics-out`` receives the soak's counters.
    """
    if plan is None:
        plan = default_chaos_plan(config, seed=seed, duration=duration)
    net = build_event_network(config, seed=seed, faults=plan)
    checker = InvariantChecker().attach(net.simulator)
    for node in net.nodes:
        node.start_periodic_discovery(discovery_period, mndp=mndp)
        node.start_session_gc(gc_interval)
    net.simulator.run(until=duration)
    terminated = net.simulator.now <= duration + 1e-9
    for node in net.nodes:
        node.gc_stale_sessions()
    checker.check_network(net)
    snapshot = net.metrics.snapshot()
    _metrics().absorb(snapshot)
    counters = dict(snapshot.counters)
    return ChaosReport(
        seed=seed,
        duration=duration,
        terminated=terminated,
        events=checker.events_seen,
        logical_links=len(net.logical_pairs()),
        sessions_gced=counters.get(_names.RETRY_SESSIONS_GCED, 0),
        violations=tuple(checker.violations),
        counters=counters,
    )
