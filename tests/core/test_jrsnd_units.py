"""Focused unit tests of JRSNDNode internals.

The end-to-end event tests cover behavior; these pin down the internal
invariants that past bugs lived in — real-time monitor reference
counting, buffered-window acceptance, and session staleness.
"""

import pytest

from repro.core.dndp import DNDPSession, SessionState
from repro.core.messages import Hello
from repro.experiments.scenarios import build_event_network


@pytest.fixture
def net(small_config):
    return build_event_network(small_config, seed=11)


class TestMonitorRefcounting:
    def test_refcount_increments_and_decrements(self, net):
        node = net.nodes[0]
        code = next(iter(node.revocation.active_codes()))
        assert not node._is_realtime(code)
        node._monitor(code)
        node._monitor(code)
        assert node._is_realtime(code)
        node._unmonitor(code)
        assert node._is_realtime(code)  # second session still needs it
        node._unmonitor(code)
        assert not node._is_realtime(code)

    def test_unmonitor_at_zero_is_noop(self, net):
        node = net.nodes[0]
        node._unmonitor(12345)  # never monitored
        assert not node._is_realtime(12345)

    def test_shared_code_across_sessions_survives_one_ending(self, net):
        """The regression that once broke concurrent handshakes: two
        sessions share a pool code; ending one must not stop the
        monitoring the other still needs."""
        node = net.nodes[0]
        code = next(iter(node.revocation.active_codes()))
        node._monitor(code)  # session 1
        node._monitor(code)  # session 2
        node._unmonitor(code)  # session 1 establishes
        assert node._is_realtime(code)


class TestBuildSynchronizer:
    def test_covers_active_codes_with_configured_backend(self, net):
        node = net.nodes[0]
        sync = node.build_synchronizer()
        active = sorted(node.revocation.active_codes())
        assert [c.code_id for c in sync.codes] == active
        # Defaults follow the config: coded HELLO length, batched engine.
        assert sync.message_bits == node.config.hello_coded_bits
        assert sync.engine.block_size > 1

    def test_message_bits_threads_through(self, small_config):
        from repro.experiments.scenarios import build_event_network

        net = build_event_network(small_config, seed=11)
        sync = net.nodes[0].build_synchronizer(message_bits=8)
        assert sync.message_bits == 8

    def test_all_revoked_raises(self, net):
        from repro.errors import ConfigurationError

        node = net.nodes[0]
        for pool_index in list(node.revocation.active_codes()):
            for _ in range(node.revocation.gamma):
                node.revocation.record_invalid_request(pool_index)
        with pytest.raises(ConfigurationError):
            node.build_synchronizer()


class TestBufferedWindowAcceptance:
    def test_copy_inside_window_accepted(self, net):
        node = net.nodes[0]
        schedule = node._schedule
        window = schedule.window(schedule.first_index() + 1)
        mid = (window.buffer_start + window.buffer_end) / 2
        found = node._covering_window(
            window.buffer_start + 1e-6, mid
        )
        assert found is not None
        assert found.index == window.index

    def test_copy_straddling_window_rejected(self, net):
        node = net.nodes[0]
        schedule = node._schedule
        window = schedule.window(schedule.first_index() + 1)
        # Starts before the window opens: cannot be fully buffered.
        assert node._covering_window(
            window.buffer_start - schedule.t_buffer / 2,
            window.buffer_start + schedule.t_buffer / 2,
        ) is None

    def test_copy_in_processing_gap_rejected(self, net):
        node = net.nodes[0]
        schedule = node._schedule
        window = schedule.window(schedule.first_index() + 1)
        # Right after the buffer closes, the node is processing.
        start = window.buffer_end + 1e-6
        assert node._covering_window(start, start + 1e-4) is None


class TestSessionStaleness:
    def test_fresh_pending_not_stale(self, net):
        node = net.nodes[0]
        session = DNDPSession(
            peer=net.nodes[1].node_id,
            initiator=False,
            state=SessionState.CONFIRMING,
            started_at=net.simulator.now,
        )
        assert not node._session_stale(session)

    def test_failed_always_stale(self, net):
        node = net.nodes[0]
        session = DNDPSession(
            peer=net.nodes[1].node_id,
            initiator=False,
            state=SessionState.FAILED,
            started_at=net.simulator.now,
        )
        assert node._session_stale(session)

    def test_old_pending_stale(self, net):
        node = net.nodes[0]
        session = DNDPSession(
            peer=net.nodes[1].node_id,
            initiator=True,
            state=SessionState.AWAIT_AUTH_RESPONSE,
            started_at=0.0,
        )
        net.simulator.call_at(1000.0, lambda: None)
        net.simulator.run()
        assert node._session_stale(session)

    def test_established_never_stale(self, net):
        node = net.nodes[0]
        session = DNDPSession(
            peer=net.nodes[1].node_id,
            initiator=True,
            state=SessionState.ESTABLISHED,
            started_at=0.0,
        )
        net.simulator.call_at(1000.0, lambda: None)
        net.simulator.run()
        assert not node._session_stale(session)


class TestDispatchGuards:
    def test_hello_from_self_ignored(self, net):
        node = net.nodes[0]
        node._on_hello(Hello(node.node_id), pool_index=0, sender=0)
        assert not node._sessions

    def test_hello_from_established_peer_ignored(self, net):
        node = net.nodes[0]
        peer = net.nodes[1].node_id
        node._logical[peer] = 1
        before = dict(node._sessions)
        node._on_hello(Hello(peer), pool_index=0, sender=1)
        assert node._sessions == before

    def test_revoked_code_deliveries_dropped(self, net, small_config):
        node = net.nodes[0]
        code = next(iter(node.revocation.active_codes()))
        for _ in range(small_config.revocation_gamma):
            node.revocation.record_invalid_request(code)
        assert code in node.revocation.revoked

        class FakeTx:
            code_key = code
            sender = 1
            start = 0.0
            end = 1e-4
            frame = Hello(net.nodes[1].node_id)

        node._on_pool_delivery(FakeTx())
        assert not node._sessions
