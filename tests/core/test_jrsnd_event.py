"""Event-driven protocol tests: the full JR-SND node on the kernel."""

import pytest

from repro.adversary.jammer import JammerStrategy
from repro.core.dndp import SessionState
from repro.core.jrsnd import FakeSignedRequest
from repro.experiments.scenarios import build_event_network


def _run_dndp(net, until=30.0):
    for node in net.nodes:
        node.initiate_dndp()
    net.simulator.run(until=until)


def _run_mndp(net, nu=2, extra=90.0):
    start = net.simulator.now
    for node in net.nodes:
        node.initiate_mndp(nu=nu)
    net.simulator.run(until=start + extra)


class TestDNDPEvent:
    def test_all_code_sharing_pairs_discover(self, small_config):
        net = build_event_network(small_config, seed=11)
        _run_dndp(net)
        logical = net.logical_pairs()
        for a, b in net.node_pairs_in_range():
            if net.assignment.shared_codes(a, b):
                assert (a, b) in logical, f"pair {(a, b)} failed D-NDP"

    def test_sessions_derive_equal_session_codes(self, small_config):
        net = build_event_network(small_config, seed=11)
        _run_dndp(net)
        for a, b in net.logical_pairs():
            node_a, node_b = net.nodes[a], net.nodes[b]
            session_ab = node_a.session_with(node_b.node_id)
            session_ba = node_b.session_with(node_a.node_id)
            assert session_ab.state is SessionState.ESTABLISHED
            assert session_ba.state is SessionState.ESTABLISHED
            assert session_ab.session_code == session_ba.session_code

    def test_shared_keys_agree(self, small_config):
        net = build_event_network(small_config, seed=11)
        _run_dndp(net)
        for a, b in net.logical_pairs():
            session_ab = net.nodes[a].session_with(net.nodes[b].node_id)
            session_ba = net.nodes[b].session_with(net.nodes[a].node_id)
            assert session_ab.shared_key == session_ba.shared_key

    def test_latencies_recorded(self, small_config):
        net = build_event_network(small_config, seed=11)
        _run_dndp(net)
        latency = net.metrics.snapshot().histograms["dndp.latency"]
        assert latency.count
        assert latency.minimum > 0

    def test_out_of_range_nodes_not_discovered(self, small_config):
        config = small_config.replace(
            n_nodes=2, share_count=2, field_width=2000.0, field_height=10.0
        )
        positions = [(0.0, 0.0), (1500.0, 0.0)]  # 1500 m apart, range 300
        net = build_event_network(config, seed=3, positions=positions)
        _run_dndp(net)
        assert net.logical_pairs() == set()

    def test_no_shared_codes_no_direct_discovery(self, small_config):
        config = small_config.replace(codes_per_node=1, share_count=2)
        net = build_event_network(config, seed=1)
        _run_dndp(net)
        for a, b in net.logical_pairs():
            assert net.assignment.shared_codes(a, b)


class TestMNDPEvent:
    def test_recovers_codeless_physical_pairs(self, small_config):
        """Across several seeds, every in-range pair without shared
        codes is discovered through a relay, and never a false one."""
        recovered_any = False
        for seed in range(4):
            net = build_event_network(small_config, seed=seed)
            _run_dndp(net)
            direct = set(net.logical_pairs())
            _run_mndp(net, nu=3)
            logical = net.logical_pairs()
            physical = set(net.node_pairs_in_range())
            assert logical <= physical  # no false positives
            recovered = logical - direct
            codeless = {
                pair
                for pair in physical
                if not net.assignment.shared_codes(*pair)
            }
            if codeless & recovered:
                recovered_any = True
        assert recovered_any

    def test_mndp_counters(self, small_config):
        net = build_event_network(small_config, seed=0)
        _run_dndp(net)
        _run_mndp(net, nu=2)
        counters = net.metrics.snapshot().counters
        assert counters.get("mndp.verifications", 0) > 0

    def test_outcome_totals(self, small_config):
        net = build_event_network(small_config, seed=0)
        _run_dndp(net)
        _run_mndp(net, nu=2)
        for node in net.nodes:
            outcome = node.outcome()
            assert outcome.total == len(outcome.logical_neighbors)
            assert outcome.dndp_count + outcome.mndp_count == outcome.total


class TestJammedEvent:
    def test_reactive_jamming_blocks_compromised_pairs(self, small_config):
        """With every node's codes compromised, D-NDP must fail."""
        config = small_config.replace(n_compromised=5)
        net = build_event_network(
            config, seed=2, jammer_strategy=JammerStrategy.REACTIVE
        )
        assert net.compromise.n_nodes == 5  # all nodes captured
        _run_dndp(net)
        assert net.logical_pairs() == set()
        assert net.jammer.effective > 0

    def test_benign_network_unaffected_by_random_jammer_without_codes(
        self, small_config
    ):
        net = build_event_network(
            small_config, seed=11, jammer_strategy=JammerStrategy.RANDOM
        )
        assert net.compromise.n_codes == 0  # q = 0
        _run_dndp(net)
        for a, b in net.node_pairs_in_range():
            if net.assignment.shared_codes(a, b):
                assert (a, b) in net.logical_pairs()


def _inject_fakes(net, victim, code, count):
    """Place fake requests inside the victim's buffered windows so its
    offline scanner actually processes them."""
    net.medium.register_node(99, lambda: victim.position)
    fake = FakeSignedRequest(claimed_sender=net.nodes[1].node_id)
    schedule = victim._schedule
    injected = 0
    window_index = schedule.first_index() + 1
    last_done = 0.0
    while injected < count:
        window = schedule.window(window_index)
        window_index += 1
        slots = int(window.duration // 2e-4) - 1
        offset = window.buffer_start + 1e-5
        for _ in range(min(slots, count - injected)):
            net.simulator.call_at(
                offset,
                net.medium.transmit,
                99,
                code,
                fake,
                1e-4,
            )
            offset += 2e-4
            injected += 1
        last_done = window.processing_done
    net.simulator.run(until=last_done + 1.0)


class TestDoSEvent:
    def test_fake_requests_trigger_revocation(self, small_config):
        net = build_event_network(small_config, seed=11)
        victim = net.nodes[0]
        attacker_code = next(iter(victim.revocation.active_codes()))
        gamma = small_config.revocation_gamma
        _inject_fakes(net, victim, attacker_code, gamma + 3)
        assert attacker_code in victim.revocation.revoked
        assert net.metrics.counter("revocation.codes_revoked") >= 1
        # Victim no longer receives anything under the revoked code.
        assert not net.medium.is_listening(victim.index, attacker_code)

    def test_verification_cost_bounded_by_gamma(self, small_config):
        """The victim wastes at most gamma + 1 verifications on one
        compromised code (Section V-D's per-victim bound)."""
        net = build_event_network(small_config, seed=11)
        victim = net.nodes[0]
        code = next(iter(victim.revocation.active_codes()))
        # Count only this victim's share: give it a unique code if
        # possible; otherwise bound by holders * (gamma + 1).
        holders = len(net.assignment.holders_of(code))
        _inject_fakes(
            net, victim, code, 5 * (small_config.revocation_gamma + 1)
        )
        assert net.metrics.counter("dos.verifications") >= 1
        assert net.metrics.counter("dos.verifications") <= holders * (
            small_config.revocation_gamma + 1
        )


class TestPeriodicDiscovery:
    def test_periodic_initiation_discovers(self, small_config):
        """Nodes left alone with periodic discovery converge on the
        physical-neighbor graph without any manual initiate calls."""
        from repro.experiments.scenarios import build_event_network

        net = build_event_network(small_config, seed=11)
        for node in net.nodes:
            node.start_periodic_discovery(period=60.0)
        net.simulator.run(until=200.0)
        logical = net.logical_pairs()
        assert logical  # something was discovered autonomously
        assert logical <= set(net.node_pairs_in_range())
        # Every direct-capable pair makes it within a few periods.
        for a, b in net.node_pairs_in_range():
            if net.assignment.shared_codes(a, b):
                assert (a, b) in logical

    def test_rejects_bad_period(self, small_config):
        from repro.errors import ConfigurationError
        from repro.experiments.scenarios import build_event_network

        net = build_event_network(small_config, seed=11)
        import pytest
        with pytest.raises(ConfigurationError):
            net.nodes[0].start_periodic_discovery(period=0.0)
