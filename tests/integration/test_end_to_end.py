"""End-to-end scenarios exercising the whole stack together."""

import numpy as np
import pytest

from repro.adversary.jammer import JammerStrategy
from repro.analysis.dndp_theory import dndp_lower_bound
from repro.core.config import JRSNDConfig
from repro.experiments.runner import NetworkExperiment
from repro.experiments.scenarios import build_event_network


class TestFullProtocolLifecycle:
    def test_dndp_then_mndp_builds_complete_logical_graph(self):
        """Benign deployment: JR-SND discovers every physical pair."""
        config = JRSNDConfig(
            n_nodes=8,
            codes_per_node=3,
            share_count=3,
            n_compromised=0,
            field_width=500.0,
            field_height=500.0,
            tx_range=300.0,
            rho=1e-9,
        )
        net = build_event_network(config, seed=21)
        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=40.0)
        start = net.simulator.now
        for node in net.nodes:
            node.initiate_mndp(nu=4)
        net.simulator.run(until=start + 200.0)
        physical = set(net.node_pairs_in_range())
        logical = net.logical_pairs()
        assert logical == physical
        # Counter conservation: each directed link was counted once.
        directed = sum(len(node.logical_neighbors) for node in net.nodes)
        assert directed == (
            net.metrics.counter("dndp.established")
            + net.metrics.counter("mndp.established")
            - net.metrics.counter("neighbors.expired")
        )

    def test_partial_compromise_partial_jamming(self):
        """Compromising some nodes degrades but does not destroy
        discovery; session codes stay safe."""
        config = JRSNDConfig(
            n_nodes=8,
            codes_per_node=3,
            share_count=4,
            n_compromised=2,
            field_width=500.0,
            field_height=500.0,
            tx_range=300.0,
            rho=1e-9,
        )
        net = build_event_network(
            config, seed=23, jammer_strategy=JammerStrategy.REACTIVE
        )
        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=40.0)
        start = net.simulator.now
        for node in net.nodes:
            node.initiate_mndp(nu=4)
        net.simulator.run(until=start + 200.0)
        logical = net.logical_pairs()
        physical = set(net.node_pairs_in_range())
        assert logical <= physical
        # Counter conservation: each directed link was counted once.
        directed = sum(len(node.logical_neighbors) for node in net.nodes)
        assert directed == (
            net.metrics.counter("dndp.established")
            + net.metrics.counter("mndp.established")
            - net.metrics.counter("neighbors.expired")
        )
        # Pairs sharing a non-compromised code always make it.
        for a, b in physical:
            shared = set(net.assignment.shared_codes(a, b))
            if shared - set(net.compromise.codes):
                assert (a, b) in logical


class TestMonteCarloPipelines:
    def test_paper_scale_snapshot(self):
        """One full 2000-node Table I run completes and is sane."""
        result = NetworkExperiment(
            JRSNDConfig(), seed=99, strategy=JammerStrategy.REACTIVE
        ).run(1)
        run = result.runs[0]
        assert run.n_pairs > 15000  # ~ n g / 2 ~ 22600
        assert 0.5 < run.p_dndp < 0.95
        assert run.p_jrsnd > run.p_dndp
        theory = dndp_lower_bound(JRSNDConfig(), 20)
        assert run.p_dndp == pytest.approx(theory, abs=0.05)

    def test_seed_isolation(self):
        """Different seeds give statistically distinct snapshots."""
        a = NetworkExperiment(JRSNDConfig(n_nodes=500), seed=1).run_once(0)
        b = NetworkExperiment(JRSNDConfig(n_nodes=500), seed=2).run_once(0)
        assert a != b
