"""Supervision tests: respawn, retry, quarantine, shutdown.

Driven end to end through the seeded execution-plane injectors
(:mod:`repro.faults.execution`, ``tests/injectors.py``), the way
``BurstJammer`` drives the channel tests: every scenario is
deterministic, and the load-bearing assertion everywhere is that
supervision never changes result bits — a retried run is identical to
an undisturbed one because runs are seed-pure.
"""

import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.core.config import JRSNDConfig
from repro.errors import (
    ConfigurationError,
    ParallelExecutionError,
    WorkerPoolError,
    is_quarantined_failure,
)
from repro.experiments.pool import (
    RESPAWN_BACKOFF,
    SupervisionPolicy,
    WorkerPool,
    adaptive_chunksize,
    retry_delay,
)
from repro.experiments.runner import NetworkExperiment
from repro.faults import WorkerKiller
from repro.obs import installed
from repro.obs import names as _names
from repro.obs.registry import MetricsRegistry
from tests.injectors import HoldRun

TINY = JRSNDConfig(
    n_nodes=120,
    codes_per_node=12,
    share_count=10,
    n_compromised=5,
    field_width=1200.0,
    field_height=1200.0,
    tx_range=260.0,
)

FAST = SupervisionPolicy(close_grace=5.0)


@dataclass(frozen=True)
class KillOrHold:
    """SIGKILL the worker before the first attempt of run ``kill``;
    hold every other run for ``hold`` seconds."""

    kill: int
    hold: float

    def before_run(self, run_index, attempt):
        if run_index == self.kill and attempt == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        if run_index != self.kill:
            time.sleep(self.hold)


class TestSupervisionPolicy:
    def test_backoff_is_bounded_exponential(self):
        """The respawn backoff schedule is pinned: 50 ms doubling per
        consecutive death, capped at 1 s."""
        assert RESPAWN_BACKOFF == (0.05, 0.1, 0.2, 0.4, 0.8, 1.0)
        assert retry_delay(0) == 0.0
        assert [retry_delay(n) for n in range(1, 7)] == list(
            RESPAWN_BACKOFF
        )
        assert retry_delay(7) == 1.0  # capped
        assert retry_delay(100) == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_run_retries": -1},
            {"max_respawns": -1},
            {"close_grace": -1.0},
            {"close_grace": float("nan")},
            {"close_grace": 0.0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(**bad)


class TestRespawnRetry:
    def test_killed_worker_respawns_and_retried_run_is_bit_identical(
        self,
    ):
        """The headline supervision gate: a run that SIGKILLs its
        worker once is retried on a respawned worker and the final
        result is byte-for-byte the serial result."""
        experiment = NetworkExperiment(TINY, seed=11, collect_metrics=True)
        serial = experiment.run(4)
        registry = MetricsRegistry()
        with installed(registry):
            with WorkerPool(
                processes=2,
                policy=FAST,
                execution_faults=WorkerKiller(kills={1: 1}),
            ) as pool:
                survived = pool.run(experiment, range(4))
            counters = registry.snapshot().counters
        assert survived.runs == serial.runs
        assert (
            survived.merged_metrics().counters
            == serial.merged_metrics().counters
        )
        assert counters[_names.POOL_WORKERS_RESPAWNED] >= 1
        assert counters[_names.POOL_RUNS_RETRIED] >= 1
        assert _names.POOL_RUNS_QUARANTINED not in counters

    def test_repeat_kills_force_repeat_respawns(self):
        """A run that kills its worker twice consumes two respawns
        and still lands bit-identically on its third attempt."""
        serial = NetworkExperiment(TINY, seed=3).run(4)
        registry = MetricsRegistry()
        with installed(registry):
            with WorkerPool(
                processes=2,
                policy=FAST,
                execution_faults=WorkerKiller(kills={2: 2}),
            ) as pool:
                result = pool.run(NetworkExperiment(TINY, seed=3), range(4))
            counters = registry.snapshot().counters
        assert result.runs == serial.runs
        assert counters[_names.POOL_WORKERS_RESPAWNED] >= 2

    def test_fresh_pool_path_survives_worker_kills(self):
        """A pool opened for one call rides the same supervisor: an
        individual worker SIGKILLed mid-job respawns instead of wedging
        the whole call."""
        experiment = NetworkExperiment(TINY, seed=11)
        with WorkerPool(
            processes=2,
            policy=FAST,
            execution_faults=WorkerKiller(kills={0: 1}),
        ) as pool:
            survived = pool.run(experiment, range(4))
        assert survived.runs == experiment.run(4).runs


class TestConcurrentJobSupervision:
    def test_deaths_are_charged_to_their_own_job(self):
        """Two jobs running side by side each lose one worker; with a
        budget of one respawn per job neither death counts against the
        other job, and both land bit-identically."""
        serial = NetworkExperiment(TINY, seed=7).run(2)
        registry = MetricsRegistry()
        with installed(registry):
            with WorkerPool(
                processes=2,
                policy=SupervisionPolicy(max_respawns=1, close_grace=5.0),
                execution_faults=WorkerKiller(kills={0: 1, 1: 1}),
            ) as pool:
                experiment = NetworkExperiment(TINY, seed=7)
                first = pool.submit(experiment, [0])
                second = pool.submit(experiment, [1])
                outcomes = first.wait() + second.wait()
                assert not pool.broken
            counters = registry.snapshot().counters
        outcomes.sort(key=lambda outcome: outcome[0])
        assert [result for _, result, _ in outcomes] == list(serial.runs)
        assert counters[_names.POOL_WORKERS_RESPAWNED] == 2
        assert counters[_names.POOL_RUNS_RETRIED] == 2

    def test_break_fails_every_active_and_queued_job(self):
        """An infrastructure failure in one job resolves every other
        job too: the one running beside it and the one queued behind
        it."""
        with WorkerPool(
            processes=2,
            policy=SupervisionPolicy(max_respawns=0, close_grace=2.0),
            execution_faults=KillOrHold(kill=0, hold=2.0),
        ) as pool:
            experiment = NetworkExperiment(TINY, seed=7)
            killed = pool.submit(experiment, [0])
            beside = pool.submit(experiment, [1])
            queued = pool.submit(experiment, [2])
            for handle in (killed, beside, queued):
                with pytest.raises(WorkerPoolError):
                    handle.wait(timeout=30.0)
                assert not handle.cancelled
            assert pool.broken


class TestQuarantine:
    def test_poison_run_is_quarantined_not_pool_sinking(self):
        """A run that kills its worker on every attempt is benched as
        a tagged failure; the other runs complete and the pool stays
        usable."""
        registry = MetricsRegistry()
        with installed(registry):
            with WorkerPool(
                processes=2,
                policy=SupervisionPolicy(
                    max_run_retries=1,
                    close_grace=5.0,
                ),
                execution_faults=WorkerKiller(kills={2: 99}),
            ) as pool:
                with pytest.raises(ParallelExecutionError) as excinfo:
                    pool.run(NetworkExperiment(TINY, seed=11), range(4))
                error = excinfo.value
                assert [index for index, _ in error.failures] == [2]
                assert all(
                    is_quarantined_failure(tb)
                    for _, tb in error.failures
                )
                assert len(error.completed.runs) == 3
                assert not pool.broken
                # The pool still accepts and executes work.
                again = pool.run(NetworkExperiment(TINY, seed=11), [0])
                assert len(again.runs) == 1
            counters = registry.snapshot().counters
        assert counters[_names.POOL_RUNS_QUARANTINED] == 1

    def test_innocent_chunk_mates_are_not_quarantined(self):
        """Runs sharing a chunk with a poison run are retried as
        singletons, so only the killer itself is quarantined."""
        # One worker and 16 runs: the heuristic ships chunks of 4, so
        # runs 12-14 share their chunk with the poison run 15.
        assert adaptive_chunksize(16, 1) == 4
        experiment = NetworkExperiment(TINY, seed=9)
        serial = experiment.run(16)
        registry = MetricsRegistry()
        with installed(registry):
            with WorkerPool(
                processes=1,
                policy=SupervisionPolicy(
                    max_run_retries=1, close_grace=5.0
                ),
                execution_faults=WorkerKiller(kills={15: 99}),
            ) as pool:
                with pytest.raises(ParallelExecutionError) as excinfo:
                    pool.run(experiment, range(16))
            counters = registry.snapshot().counters
        error = excinfo.value
        assert [index for index, _ in error.failures] == [15]
        # collect_outcomes orders by run index before aggregation.
        assert error.completed.runs == serial.runs[:15]
        # The chunk-mates were retried (as singletons), not quarantined.
        assert counters[_names.POOL_RUNS_QUARANTINED] == 1
        assert counters[_names.POOL_RUNS_RETRIED] >= 4


class TestCloseEscalation:
    def test_close_force_kills_uninterruptible_worker(self):
        """Satellite regression: ``close()`` used to leak a worker
        that ignored the stop sentinel.  The join → terminate → kill
        ladder must reap even a SIGTERM-ignoring held worker, boundedly."""
        registry = MetricsRegistry()
        with installed(registry):
            pool = WorkerPool(
                processes=2,
                policy=SupervisionPolicy(close_grace=0.3),
                execution_faults=HoldRun(
                    run=0, seconds=120.0, ignore_sigterm=True
                ),
            )
            handle = pool.submit(NetworkExperiment(TINY, seed=7), [0, 1])
            # Let the held chunk reach the worker before closing.
            time.sleep(0.5)
            start = time.monotonic()
            pool.close()
            elapsed = time.monotonic() - start
            counters = registry.snapshot().counters
        assert elapsed < 30.0
        for process in pool._processes:
            assert not process.is_alive()
        assert counters[_names.POOL_WORKERS_FORCE_KILLED] >= 1
        with pytest.raises(WorkerPoolError):
            handle.wait(timeout=5.0)


class TestWaitTimeoutCancellation:
    def test_timed_out_wait_cancels_queued_job(self):
        """Satellite regression: a timed-out ``wait`` used to leave
        the job registered with the dispatcher (slot leak + late
        delivery race).  Now it cancels: the dispatcher skips the job
        and the pool is immediately reusable."""
        serial = NetworkExperiment(TINY, seed=7).run(1)
        with WorkerPool(
            processes=1,
            policy=FAST,
            execution_faults=HoldRun(run=5, seconds=1.5),
        ) as pool:
            experiment = NetworkExperiment(TINY, seed=7)
            slow = pool.submit(experiment, [5])
            queued = pool.submit(experiment, [0])
            with pytest.raises(WorkerPoolError, match="cancelled"):
                queued.wait(timeout=0.2)
            assert queued.cancelled
            # The held job finishes; the cancelled one is skipped with
            # an error instead of occupying the worker.
            slow.wait(timeout=30.0)
            with pytest.raises(WorkerPoolError, match="cancelled"):
                queued.wait(timeout=30.0)
            # No late delivery into the caller's next job: fresh
            # submissions resolve normally with the right bits.
            assert pool.run(experiment, [0]).runs == serial.runs
            assert not pool.broken
