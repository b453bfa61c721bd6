"""Tests for logical-neighbor maintenance under mobility."""

import pytest

from repro.core.neighbors import NeighborTable
from repro.errors import ConfigurationError
from repro.experiments.scenarios import build_event_network


class TestNeighborTable:
    def test_touch_and_idle(self):
        table = NeighborTable()
        table.touch("a", 1.0)
        assert table.idle_time("a", 5.0) == pytest.approx(4.0)
        assert "a" in table
        assert len(table) == 1

    def test_stale_peers(self):
        table = NeighborTable()
        table.touch("a", 0.0)
        table.touch("b", 9.0)
        assert table.stale_peers(10.0, threshold=5.0) == ["a"]

    def test_touch_refreshes(self):
        table = NeighborTable()
        table.touch("a", 0.0)
        table.touch("a", 9.0)
        assert table.stale_peers(10.0, threshold=5.0) == []

    def test_time_cannot_go_backwards(self):
        table = NeighborTable()
        table.touch("a", 5.0)
        with pytest.raises(ConfigurationError):
            table.touch("a", 4.0)

    def test_unknown_peer(self):
        with pytest.raises(ConfigurationError):
            NeighborTable().last_activity("x")

    def test_forget_idempotent(self):
        table = NeighborTable()
        table.touch("a", 0.0)
        table.forget("a")
        table.forget("a")
        assert "a" not in table


class TestNodeExpiry:
    def _discovered_network(self, small_config, seed=11):
        net = build_event_network(small_config, seed=seed)
        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=30.0)
        return net

    def test_silent_neighbors_expire(self, small_config):
        net = self._discovered_network(small_config)
        node = next(n for n in net.nodes if n.logical_neighbors)
        before = len(node.logical_neighbors)
        # Let a long silent period pass, then expire.
        net.simulator.call_at(net.simulator.now + 100.0, lambda: None)
        net.simulator.run()
        expired = node.expire_stale_neighbors(threshold=50.0)
        assert len(expired) == before
        assert not node.logical_neighbors
        assert net.metrics.counter("neighbors.expired") >= before

    def test_keepalive_prevents_expiry(self, small_config):
        net = self._discovered_network(small_config)
        node = next(n for n in net.nodes if n.logical_neighbors)
        peer_id = next(iter(node.logical_neighbors))
        peer = next(n for n in net.nodes if n.node_id == peer_id)
        # Peer keeps beaconing over the session code.
        for step in range(10):
            net.simulator.call_at(
                net.simulator.now + 10.0 * (step + 1),
                peer.send_keepalive,
                node.node_id,
            )
        net.simulator.run()
        expired = node.expire_stale_neighbors(threshold=50.0)
        assert peer_id not in expired
        assert peer_id in node.logical_neighbors

    def test_maintenance_process(self, small_config):
        net = self._discovered_network(small_config)
        node = next(n for n in net.nodes if n.logical_neighbors)
        node.start_maintenance(threshold=20.0, interval=10.0)
        net.simulator.run(until=net.simulator.now + 100.0)
        assert not node.logical_neighbors

    def test_expired_session_code_released(self, small_config):
        net = self._discovered_network(small_config)
        node = next(n for n in net.nodes if n.logical_neighbors)
        peer_id = next(iter(node.logical_neighbors))
        code = node._session_codes[peer_id].code
        net.simulator.call_at(net.simulator.now + 100.0, lambda: None)
        net.simulator.run()
        node.expire_stale_neighbors(threshold=50.0)
        assert not net.medium.is_listening(node.index, code.code_id)

    def test_send_keepalive_requires_session(self, small_config):
        net = build_event_network(small_config, seed=11)
        assert not net.nodes[0].send_keepalive(net.nodes[1].node_id)
