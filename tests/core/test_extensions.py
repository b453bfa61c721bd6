"""Tests for the paper's optional/extension features.

- GPS position filtering in M-NDP (Section V-C's false-positive
  elimination option);
- the multi-antenna broadcast extension (the paper's stated future
  work).
"""

import pytest

from repro.analysis.dndp_theory import (
    dndp_expected_latency,
    dndp_expected_latency_antennas,
)
from repro.core.config import JRSNDConfig, default_config
from repro.core.timing import ProtocolTiming
from repro.errors import ConfigurationError
from repro.experiments.scenarios import build_event_network


def _line_config(use_gps, tx_range=300.0):
    return JRSNDConfig(
        n_nodes=3,
        codes_per_node=2,
        share_count=2,
        n_compromised=0,
        field_width=900.0,
        field_height=50.0,
        tx_range=tx_range,
        rho=1e-9,
        nu=2,
        use_gps=use_gps,
    )


def _run_line_topology(use_gps, seed=4):
    """A(0) - C(250) - B(500): A and B are NOT physical neighbors but
    share logical neighbor C, so M-NDP requests reach both ends."""
    positions = [(0.0, 25.0), (250.0, 25.0), (500.0, 25.0)]
    net = build_event_network(
        _line_config(use_gps), seed=seed, positions=positions
    )
    for node in net.nodes:
        node.initiate_dndp()
    net.simulator.run(until=30.0)
    assert (0, 1) in net.logical_pairs()
    assert (1, 2) in net.logical_pairs()
    start = net.simulator.now
    for node in net.nodes:
        node.initiate_mndp(nu=2)
    net.simulator.run(until=start + 120.0)
    return net


class TestGpsFiltering:
    def test_out_of_range_request_filtered(self):
        """With GPS on, node 2 drops node 0's request before doing the
        expensive key derivation / beaconing."""
        net = _run_line_topology(use_gps=True)
        assert net.metrics.counter("mndp.gps_filtered") >= 1
        assert (0, 2) not in net.logical_pairs()

    def test_without_gps_wasted_work_but_same_outcome(self):
        """Without GPS, the confirmation exchange still prevents the
        false positive — at the cost of wasted responses/beacons."""
        net = _run_line_topology(use_gps=False)
        assert net.metrics.counter("mndp.gps_filtered") == 0
        assert (0, 2) not in net.logical_pairs()

    def test_gps_does_not_block_true_neighbors(self, small_config):
        config = small_config.replace(use_gps=True)
        net = build_event_network(config, seed=0)
        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=30.0)
        start = net.simulator.now
        for node in net.nodes:
            node.initiate_mndp(nu=3)
        net.simulator.run(until=start + 120.0)
        physical = set(net.node_pairs_in_range())
        assert net.logical_pairs() == physical

    def test_position_bound_into_signature(self):
        """Tampering with the embedded position breaks the signature."""
        from repro.core.messages import MNDPRequest
        from repro.core.mndp import validate_request_chain
        from repro.crypto.identity import TrustedAuthority
        from repro.crypto.signatures import SignatureScheme

        authority = TrustedAuthority(b"m")
        scheme = SignatureScheme(authority.public_parameters())
        a = authority.make_id(1)
        key = authority.issue_private_key(a)
        request = MNDPRequest(
            source=a, source_neighbors=(), nonce=1, hop_budget=2,
            source_signature=None, source_position=(10.0, 20.0),
        )
        signature = scheme.sign(key, request.source_signed_bytes())
        good = MNDPRequest(
            source=a, source_neighbors=(), nonce=1, hop_budget=2,
            source_signature=signature, source_position=(10.0, 20.0),
        )
        tampered = MNDPRequest(
            source=a, source_neighbors=(), nonce=1, hop_budget=2,
            source_signature=signature, source_position=(500.0, 20.0),
        )
        assert validate_request_chain(good, scheme)
        assert not validate_request_chain(tampered, scheme)


class TestMultiAntenna:
    def test_code_cycle(self):
        config = default_config().replace(tx_antennas=4)
        assert ProtocolTiming(config).code_cycle == 25

    def test_single_antenna_matches_theorem2(self):
        config = default_config()
        assert dndp_expected_latency_antennas(config) == pytest.approx(
            dndp_expected_latency(config), rel=0.02
        )

    def test_latency_shrinks_with_antennas(self):
        latencies = [
            dndp_expected_latency_antennas(
                default_config().replace(tx_antennas=k)
            )
            for k in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(latencies, latencies[1:]))
        # The dominant schedule term scales ~1/k.
        assert latencies[0] / latencies[3] > 3.0

    def test_antennas_cannot_exceed_codes(self):
        with pytest.raises(ConfigurationError):
            default_config().replace(codes_per_node=4, tx_antennas=8)

    def test_event_sim_faster_with_antennas(self):
        """The event-driven handshake completes sooner with parallel
        HELLO broadcasts."""
        import numpy as np

        def measure(k, seeds=range(8)):
            totals = []
            for seed in seeds:
                config = JRSNDConfig(
                    n_nodes=2, codes_per_node=4, share_count=2,
                    n_compromised=0, field_width=100.0, field_height=100.0,
                    tx_range=300.0, rho=1e-9, tx_antennas=k,
                )
                net = build_event_network(config, seed=seed)
                net.nodes[0].initiate_dndp()
                net.simulator.run(until=10.0)
                session = net.nodes[0].session_with(net.nodes[1].node_id)
                if session and session.established_at:
                    totals.append(session.established_at)
            return float(np.mean(totals))

        assert measure(4) < measure(1)


class TestWireFidelity:
    def test_wire_mode_equivalent_to_object_mode(self, small_config):
        """With wire_fidelity on, every message crosses the air as its
        real bit encoding — and the network converges to the identical
        logical graph with zero undecodable frames."""

        def run(wire_fidelity):
            config = small_config.replace(
                wire_fidelity=wire_fidelity, nu=3
            )
            net = build_event_network(config, seed=0)
            for node in net.nodes:
                node.initiate_dndp()
            net.simulator.run(until=30.0)
            start = net.simulator.now
            for node in net.nodes:
                node.initiate_mndp()
            net.simulator.run(until=start + 120.0)
            return net

        plain = run(False)
        wired = run(True)
        assert wired.logical_pairs() == plain.logical_pairs()
        assert wired.metrics.counter("wire.undecodable") == 0

    def test_frames_actually_on_the_air(self, small_config):
        """In wire mode the medium carries Frame objects, not the
        typed messages."""
        from repro.dsss.frame import Frame

        config = small_config.replace(wire_fidelity=True)
        net = build_event_network(config, seed=0)
        seen_frames = []

        class Sniffer:
            def on_transmission(self, tx, medium):
                seen_frames.append(tx.frame)

        net.medium.add_jammer(Sniffer())
        net.nodes[0].initiate_dndp(rounds=1)
        net.simulator.run(until=1.0)
        assert seen_frames
        assert all(isinstance(f, Frame) for f in seen_frames)
