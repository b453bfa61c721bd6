"""repro.faults — deterministic fault injection for the event stack.

JR-SND's claim is graceful operation on an adversarial channel, but the
paper's probabilistic jammer is only one adversary.  This package turns
the event-driven simulation into a chaos harness: a seeded, schedulable
:class:`FaultPlan` composes injectors for

- chip-burst jamming windows (:class:`~repro.faults.injectors.BurstJammer`),
- probabilistic / targeted message drop (:class:`~repro.faults.injectors.MessageDrop`),
- duplicate delivery (:class:`~repro.faults.injectors.Duplicator`),
- reordered delivery (:class:`~repro.faults.injectors.Reorderer`),
- node crash/restart and churn (:class:`~repro.faults.injectors.NodeChurn`),
- per-node clock skew and drift (:class:`~repro.faults.injectors.ClockSkew`),

and hooks them into the kernel through two narrow APIs: the
:class:`~repro.sim.medium.FaultHook` protocol on
:class:`~repro.sim.medium.RadioMedium` (transmission start + per-receiver
delivery) and the :class:`~repro.sim.engine.SimObserver` slot on
:class:`~repro.sim.engine.Simulator` (per-event clock observation, used
by the :class:`~repro.faults.invariants.InvariantChecker`).

Determinism contract: all fault randomness derives from the plan's own
seed via label-derived child streams, so attaching a plan never perturbs
any other random stream — and a :class:`NullFaultPlan` (or a plan with
no injectors) is bit-identical to running with no plan at all.

Everything the layer does is visible as ``faults.*`` counters in the
registry the plan is bound with — an event network's ``metrics``, which
:func:`~repro.experiments.chaos.run_chaos` absorbs into the installed
:mod:`repro.obs` registry.

A second, *execution-plane* family (:mod:`repro.faults.execution`)
targets the worker-pool supervisor instead of the channel: a seeded
:class:`WorkerKiller` enters through a test-only hook at the pool
boundary, so respawn/retry/quarantine behaviour is just as
deterministic as the jammed channel.
"""

from repro.faults.execution import WorkerKiller
from repro.faults.injectors import (
    BurstJammer,
    ClockSkew,
    Duplicator,
    FaultInjector,
    MessageDrop,
    NodeChurn,
    Reorderer,
)
from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.faults.plan import FaultPlan, NullFaultPlan

__all__ = [
    "FaultPlan",
    "NullFaultPlan",
    "FaultInjector",
    "BurstJammer",
    "MessageDrop",
    "Duplicator",
    "Reorderer",
    "NodeChurn",
    "ClockSkew",
    "InvariantChecker",
    "InvariantViolation",
    "WorkerKiller",
]
