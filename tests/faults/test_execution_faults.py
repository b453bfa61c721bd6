"""Unit tests for the execution-plane injector.

The process-killing behaviour itself is exercised end to end in
``tests/experiments/test_pool_supervision.py``; here we pin the
deterministic decision logic (what would be killed, when) without
ever actually killing the test process.
"""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.faults import WorkerKiller


class TestWorkerKiller:
    def test_explicit_kill_map(self):
        killer = WorkerKiller(kills={3: 2})
        assert killer.kills_for(3) == 2
        assert killer.kills_for(0) == 0

    def test_seeded_draws_are_deterministic(self):
        a = WorkerKiller(seed=42, rate=0.5, max_kills=2)
        b = WorkerKiller(seed=42, rate=0.5, max_kills=2)
        decisions = [a.kills_for(index) for index in range(64)]
        assert decisions == [b.kills_for(index) for index in range(64)]
        # Rate 0.5 over 64 indices kills some but not all runs.
        assert 0 < sum(1 for k in decisions if k) < 64
        assert set(decisions) <= {0, 2}

    def test_seed_changes_decisions(self):
        a = [
            WorkerKiller(seed=1, rate=0.5).kills_for(i)
            for i in range(64)
        ]
        b = [
            WorkerKiller(seed=2, rate=0.5).kills_for(i)
            for i in range(64)
        ]
        assert a != b

    def test_rate_zero_never_kills(self):
        killer = WorkerKiller(seed=7, rate=0.0)
        assert all(
            killer.kills_for(index) == 0 for index in range(32)
        )
        # Safe to invoke in-process: never reaches os.kill.
        killer.before_run(0, 0)

    def test_attempt_gating_lets_the_retry_through(self):
        """An attempt at or past the kill budget must not kill — this
        is what guarantees a retried run eventually succeeds."""
        killer = WorkerKiller(kills={4: 2})
        # attempts 2+ survive; calling in-process proves no os.kill.
        killer.before_run(4, 2)
        killer.before_run(4, 5)
        killer.before_run(0, 0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerKiller(rate=1.5)
        with pytest.raises(ConfigurationError):
            WorkerKiller(max_kills=-1)

    def test_picklable(self):
        killer = WorkerKiller(kills={1: 1})
        clone = pickle.loads(pickle.dumps(killer))
        assert clone.kills_for(1) == 1

