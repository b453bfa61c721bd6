"""Property-based tests for the AUTH retry schedule.

The hardened handshake rests on three claims: the exponential-backoff
schedule is always bounded by ``max_timeout``, the number of attempts
never exceeds the configured maximum, and — most importantly — enabling
the retry machinery does not perturb one bit of a fault-free run
relative to the fire-and-forget seed behavior.  Hypothesis sweeps the
policy space; the identity claim is checked against full simulations.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import JRSNDConfig
from repro.core.dndp import RetryPolicy
from repro.experiments.scenarios import build_event_network

policies = st.builds(
    RetryPolicy,
    base_timeout=st.floats(min_value=1e-4, max_value=100.0,
                           allow_nan=False, allow_infinity=False),
    max_attempts=st.integers(min_value=0, max_value=8),
    backoff_factor=st.floats(min_value=1.0, max_value=8.0,
                             allow_nan=False, allow_infinity=False),
)


class TestScheduleProperties:
    @given(policies)
    @settings(max_examples=200, deadline=None)
    def test_schedule_shape_and_bounds(self, policy):
        schedule = policy.schedule()
        # One timeout per attempt: the initial send plus each retry.
        assert len(schedule) == policy.max_attempts + 1
        assert all(0.0 < t <= policy.max_timeout for t in schedule)
        assert schedule[0] == min(policy.base_timeout, policy.max_timeout)

    @given(policies)
    @settings(max_examples=200, deadline=None)
    def test_backoff_is_monotone_until_the_cap(self, policy):
        schedule = policy.schedule()
        for earlier, later in zip(schedule, schedule[1:]):
            assert later >= earlier - 1e-12
        assert policy.total_budget == sum(schedule)

    @given(policies, st.integers(min_value=0, max_value=32))
    @settings(max_examples=200, deadline=None)
    def test_timeout_for_any_attempt_is_capped(self, policy, attempt):
        assert 0.0 < policy.timeout_for(attempt) <= policy.max_timeout


# A single handshaking pair: the scenario where "fault-free" really
# means loss-free most of the time, so the identity branch of the
# property below is exercised often (organic same-pair collisions
# still lose a message on a small fraction of seeds).
IDENTITY = JRSNDConfig(
    n_nodes=2,
    codes_per_node=3,
    share_count=2,
    n_compromised=0,
    field_width=400.0,
    field_height=400.0,
    tx_range=300.0,
    rho=1e-9,
)


def _fingerprint(config, seed):
    """Everything observable about one fault-free run."""
    net = build_event_network(config, seed=seed)
    for node in net.nodes:
        node.initiate_dndp()
    net.simulator.run(until=30.0)
    start = net.simulator.now
    for node in net.nodes:
        node.initiate_mndp(nu=2)
    net.simulator.run(until=start + 60.0)
    return (
        net.logical_pairs(),
        dict(net.metrics.snapshot().counters),
        net.medium.delivered_count,
        net.medium.jammed_count,
        [node.outcome() for node in net.nodes],
    )


class TestFaultFreeIdentity:
    """The two runs share one rng stream until the first divergence
    trigger, and there are exactly two triggers: the legacy responder
    hitting its short CONFIRM deadline, or a hardened retry timer
    actually retransmitting.  When neither fires — no handshake
    message was lost — enabling the retry machinery must not perturb
    one bit of the run.  When a message *was* lost organically, the
    hardening must do no worse than the seed's fire-and-forget."""

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_retries_on_equals_retries_off_when_nothing_lost(
        self, seed
    ):
        hardened = _fingerprint(IDENTITY, seed)
        legacy = _fingerprint(
            IDENTITY.replace(retry_max_attempts=0), seed
        )
        lost = (
            legacy[1].get("dndp.responder_timeout", 0) > 0
            or hardened[1].get("retry.auth_retransmits", 0) > 0
        )
        if lost:
            # e.g. seeds 0 and 10: the seed behavior wedges to zero
            # links, the retransmit recovers both directions.
            assert len(hardened[0]) >= len(legacy[0])
        else:
            assert hardened == legacy
