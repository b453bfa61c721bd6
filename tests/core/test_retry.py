"""Handshake retry/timeout hardening: retransmission, terminal FAILED
states and monitor accounting."""

import pytest

from repro.core.config import JRSNDConfig
from repro.core.dndp import RetryPolicy, SessionState
from repro.core.messages import AuthResponse
from repro.errors import ProtocolError
from repro.experiments.scenarios import build_event_network
from tests.injectors import DropFrames

PAIR = JRSNDConfig(
    n_nodes=2,
    codes_per_node=3,
    share_count=2,
    n_compromised=0,
    field_width=100.0,
    field_height=100.0,
    tx_range=300.0,
    rho=1e-9,
)

# Recovery needs the buffered path to have a fighting chance: rho small
# enough that t_p clamps to t_b (back-to-back buffer windows) and an
# AUTH frame clearly shorter than one window, so a retransmitted
# AUTH_REQUEST lands fully inside a window with high probability.
RECOVERY = PAIR.replace(
    codes_per_node=6,
    auth_frame_bits=96,
    rho=1e-11,
)


def _establish_time(seed, config=PAIR):
    """When the benign handshake completes, for cutoff placement."""
    net = build_event_network(config, seed=seed)
    for node in net.nodes:
        node.initiate_dndp()
    net.simulator.run(until=5.0)
    times = [
        session.established_at
        for node in net.nodes
        for session in node.sessions().values()
        if session.established_at is not None
    ]
    assert times, "benign pair run must establish"
    return max(times)


class TestRetryPolicy:
    def test_schedule_shape(self):
        policy = RetryPolicy(
            base_timeout=1.0, max_attempts=3, backoff_factor=2.0,
            max_timeout=5.0,
        )
        assert policy.schedule() == (1.0, 2.0, 4.0, 5.0)
        assert policy.total_budget == 12.0
        assert policy.enabled

    def test_disabled_policy(self):
        policy = RetryPolicy(base_timeout=1.0, max_attempts=0)
        assert not policy.enabled
        assert policy.schedule() == (1.0,)

    def test_validation(self):
        with pytest.raises(ProtocolError):
            RetryPolicy(base_timeout=0.0, max_attempts=1)
        with pytest.raises(ProtocolError):
            RetryPolicy(base_timeout=1.0, max_attempts=-1)
        with pytest.raises(ProtocolError):
            RetryPolicy(base_timeout=1.0, max_attempts=1,
                        backoff_factor=0.5)
        with pytest.raises(ProtocolError):
            RetryPolicy(base_timeout=2.0, max_attempts=1, max_timeout=1.0)
        with pytest.raises(ProtocolError):
            RetryPolicy(base_timeout=1.0, max_attempts=1).timeout_for(-1)


class TestAuthRetransmission:
    def test_lost_response_recovered_by_retry(self, monkeypatch):
        """Dropping the first AUTH_RESPONSE volley must cost one retry,
        not the neighbor relationship."""
        cutoff = _establish_time(seed=31, config=RECOVERY) + 1e-6
        injector = DropFrames(AuthResponse, until=cutoff).install(monkeypatch)
        net = build_event_network(RECOVERY, seed=31)
        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=30.0)
        assert injector.dropped > 0
        assert len(net.logical_pairs()) == 1
        assert net.metrics.counter("retry.auth_retransmits") >= 1
        # The responder re-answered the duplicate AUTH_REQUEST instead
        # of replay-dropping it.
        assert net.metrics.counter("retry.auth_response_retransmits") >= 1
        for node in net.nodes:
            for session in node.sessions().values():
                assert session.state is SessionState.ESTABLISHED
                assert not session.monitored
            assert node.monitor_counts() == {}

    def test_exhausted_retries_fail_terminally(self, monkeypatch):
        """With the response channel dead forever, the initiator must
        land in FAILED with every monitor released — not wedge."""
        DropFrames(AuthResponse).install(monkeypatch)
        net = build_event_network(PAIR, seed=31)
        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=60.0)
        assert net.metrics.counter("retry.sessions_failed") >= 1
        failed = [
            (node, session)
            for node in net.nodes
            for session in node.sessions().values()
            if session.state is SessionState.FAILED
        ]
        assert failed
        for node, session in failed:
            assert not session.monitored
            # The failed side never added the peer as a neighbor.  (The
            # responder may hold a one-sided ESTABLISHED link: it sent
            # its response and cannot know it was swallowed.)
            assert session.peer not in node.logical_neighbors
        # Attempts never exceed the configured maximum.
        for node in net.nodes:
            for session in node.sessions().values():
                assert session.attempts <= PAIR.retry_max_attempts

    def test_retries_disabled_restores_fire_and_forget(self, monkeypatch):
        """max_attempts=0 must arm no timers: the lost response wedges
        the initiator exactly as the seed behavior did."""
        config = PAIR.replace(retry_max_attempts=0)
        DropFrames(AuthResponse).install(monkeypatch)
        net = build_event_network(config, seed=31)
        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=60.0)
        assert net.metrics.counter("retry.auth_retransmits") == 0
        assert net.metrics.counter("retry.sessions_failed") == 0
        states = {
            session.state
            for node in net.nodes
            for session in node.sessions().values()
        }
        assert SessionState.AWAIT_AUTH_RESPONSE in states
