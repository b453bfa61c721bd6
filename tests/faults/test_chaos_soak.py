"""Chaos soak tests: the acceptance gate of the fault subsystem.

Under a seeded :class:`~repro.faults.FaultPlan` mixing burst jamming,
message drop, node churn, clock skew, duplication and reordering, the
simulation must always terminate and the :class:`InvariantChecker` must
report zero violations; with every injector disabled the run must be
bit-identical to a run with no plan attached at all.
"""

import pytest

from repro.experiments import chaos
from repro.experiments.chaos import (
    chaos_config,
    default_chaos_plan,
    run_chaos,
)
from repro.experiments.scenarios import build_event_network
from repro.faults import (
    FaultPlan,
    InvariantChecker,
    NullFaultPlan,
)
from repro.obs import MetricsRegistry, installed


def _fault_counts(report):
    return {
        name: value
        for name, value in report.counters.items()
        if name.startswith("faults.")
    }


def _run_fingerprint(config, seed, faults):
    """Everything observable about one fixed-scenario run."""
    net = build_event_network(config, seed=seed, faults=faults)
    for node in net.nodes:
        node.initiate_dndp()
    net.simulator.run(until=30.0)
    start = net.simulator.now
    for node in net.nodes:
        node.initiate_mndp(nu=3)
    net.simulator.run(until=start + 100.0)
    return (
        net.logical_pairs(),
        dict(net.metrics.snapshot().counters),
        net.medium.delivered_count,
        net.medium.jammed_count,
        [node.outcome() for node in net.nodes],
    )


class TestChaosSoak:
    @pytest.mark.parametrize("seed", [3, 17, 2011])
    def test_soak_terminates_with_zero_violations(self, seed):
        """The headline guarantee: >= 4 fault types, graceful
        degradation, every invariant intact."""
        config = chaos_config(7)
        plan = default_chaos_plan(config, seed=seed, duration=40.0)
        # The default mix composes all six injector types.
        assert len(plan.injectors) >= 4
        report = run_chaos(config, seed=seed, duration=40.0, plan=plan)
        assert report.terminated
        assert report.violations == ()
        assert report.events > 0
        # The plan actually did something hostile.
        assert _fault_counts(report)

    def test_null_plan_bit_identical_to_no_plan(self):
        """NullFaultPlan (the disabled default) must not perturb one
        bit of the simulation relative to faults=None."""
        config = chaos_config(6)
        baseline = _run_fingerprint(config, seed=11, faults=None)
        nulled = _run_fingerprint(config, seed=11, faults=NullFaultPlan())
        assert nulled == baseline

    def test_empty_enabled_plan_bit_identical_to_no_plan(self):
        """An *enabled* plan with no injectors routes every delivery
        through the fault path; the synchronous delay<=0 branch keeps
        ordering bit-identical to the legacy direct call."""
        config = chaos_config(6)
        baseline = _run_fingerprint(config, seed=11, faults=None)
        empty = _run_fingerprint(config, seed=11, faults=FaultPlan([]))
        assert empty == baseline

    def test_faulted_run_loses_but_never_invents_neighbors(self):
        """Faults may cost links; they must never create false ones."""
        config = chaos_config(6)
        benign = _run_fingerprint(config, seed=11, faults=None)
        plan = default_chaos_plan(config, seed=5, duration=130.0,
                                  drop=0.15)
        hostile = _run_fingerprint(config, seed=11, faults=plan)
        assert hostile[0] <= benign[0]

    def test_report_surface(self):
        config = chaos_config(5)
        report = run_chaos(config, seed=9, duration=20.0)
        assert report.ok is (report.terminated and not report.violations)
        lines = report.summary_lines()
        assert any("chaos soak" in line for line in lines)
        assert _fault_counts(report)  # the mix injected something


class TestOneCounterStore:
    def test_network_counts_reach_installed_registry_once(
        self, monkeypatch
    ):
        """The network's nodes and fault plan count into one registry,
        and ``run_chaos`` hands it to the installed one exactly once."""
        nets = []

        def capture(*args, **kwargs):
            nets.append(build_event_network(*args, **kwargs))
            return nets[-1]

        monkeypatch.setattr(chaos, "build_event_network", capture)
        with installed(MetricsRegistry()) as registry:
            report = run_chaos(chaos_config(), seed=2011, duration=10.0)
        counters = registry.snapshot().counters
        prefixes = ("dndp.", "mndp.", "retry.", "faults.")

        def event_counts(source):
            return {
                name: value
                for name, value in source.items()
                if name.startswith(prefixes)
            }

        assert event_counts(counters) == event_counts(report.counters)
        assert counters["dndp.established"] == 14
        assert counters["mndp.established"] == 4
        directed = sum(len(node.logical_neighbors) for node in nets[0].nodes)
        assert directed == (
            counters["dndp.established"]
            + counters["mndp.established"]
            - counters.get("neighbors.expired", 0)
        )


class TestInvariantChecker:
    def test_monotone_clock_watch(self):
        checker = InvariantChecker()
        checker.on_event(1.0)
        checker.on_event(2.0)
        checker.on_event(1.5)  # regression
        assert [v.name for v in checker.violations] == ["monotone-clock"]
        assert checker.events_seen == 3

    def test_false_neighbor_detection(self):
        """Teleporting an established neighbor out of range must trip
        the false-neighbor audit."""
        config = chaos_config(6)
        net = build_event_network(config, seed=11)
        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=30.0)
        assert net.logical_pairs()
        linked = next(
            node for node in net.nodes if node.logical_neighbors
        )
        linked.position = (1e6, 1e6)
        checker = InvariantChecker()
        checker.check_network(net)
        assert any(
            v.name == "false-neighbor" for v in checker.violations
        )

    def test_monitor_conservation_detection(self):
        """Tampering with a node's refcount table must be caught."""
        config = chaos_config(5)
        net = build_event_network(config, seed=3)
        checker = InvariantChecker()
        assert checker.check_network(net) == []
        net.nodes[0]._realtime[0] = 99  # leak one refcount
        assert any(
            v.name == "monitor-conservation"
            for v in checker.check_network(net)
        )

    def test_violation_list_is_bounded(self):
        checker = InvariantChecker()
        for k in range(200):
            checker.on_event(float(-k))
        assert len(checker.violations) <= 50
