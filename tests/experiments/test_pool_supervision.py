"""Worker death, shutdown and wait timeouts.

Driven through ``tests/injectors.HoldRun``, an experiment whose run of
one index holds or SIGKILLs its worker.  The pool does not replace a
dead worker: the death raises ``WorkerPoolError`` naming the run
indices the worker held and breaks the pool, and recovery is the
caller's (``campaign resume``).
"""

import os
import signal
import time

import pytest

from repro.core.config import JRSNDConfig
from repro.errors import WorkerPoolError
from repro.experiments import pool as pool_module
from repro.experiments.pool import WorkerPool
from repro.experiments.runner import NetworkExperiment
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


class TestWorkerDeath:
    def test_dead_worker_fails_the_job_naming_its_run_indices(self):
        """Run 3 SIGKILLs its worker: the job fails with the one-run
        chunk the worker held, and the pool refuses further work."""
        killer = HoldRun(TINY, seed=11, hold_run=3, kill=True)
        with WorkerPool(processes=2) as pool:
            with pytest.raises(
                WorkerPoolError, match=r"died holding run indices \[3\]"
            ):
                pool.run(killer, range(4))
            assert pool.broken
            with pytest.raises(WorkerPoolError, match=r"broken.*\[3\]"):
                pool.submit(NetworkExperiment(TINY, seed=11), [0])

    def test_worker_killed_from_outside_fails_the_job(self):
        """A SIGKILL from outside (the OOM killer's) lands the same
        way, whether the worker already held its chunk or not."""
        held = HoldRun(TINY, seed=7, hold_run=0, seconds=60.0)
        with WorkerPool(processes=2) as pool:
            handle = pool.submit(held, [0, 1])
            for process in pool._processes:
                os.kill(process.pid, signal.SIGKILL)
            with pytest.raises(
                WorkerPoolError, match=r"run indices \[[01]\]"
            ):
                handle.wait(timeout=30.0)
            assert pool.broken


class TestConcurrentJobSupervision:
    def test_break_fails_every_active_and_queued_job(self):
        """A worker death in one job resolves every other job too: the
        one running beside it and the one queued behind it."""
        with WorkerPool(processes=2) as pool:
            killed = pool.submit(
                HoldRun(TINY, seed=7, hold_run=0, kill=True), [0]
            )
            beside = pool.submit(
                HoldRun(TINY, seed=7, hold_run=1, seconds=2.0), [1]
            )
            queued = pool.submit(
                HoldRun(TINY, seed=7, hold_run=2, seconds=2.0), [2]
            )
            for handle in (killed, beside, queued):
                with pytest.raises(WorkerPoolError):
                    handle.wait(timeout=30.0)
                assert not handle.cancelled
            assert pool.broken


class TestCloseEscalation:
    def test_close_force_kills_uninterruptible_worker(self, monkeypatch):
        """Satellite regression: ``close()`` used to leak a worker
        that ignored the stop sentinel.  The join → terminate → kill
        ladder must reap even a SIGTERM-ignoring held worker, boundedly."""
        monkeypatch.setattr(pool_module, "CLOSE_GRACE", 0.3)
        registry = MetricsRegistry()
        with installed(registry):
            pool = WorkerPool(processes=2)
            handle = pool.submit(
                HoldRun(
                    TINY, seed=7, hold_run=0, seconds=120.0,
                    ignore_sigterm=True,
                ),
                [0, 1],
            )
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
        with WorkerPool(processes=1) as pool:
            experiment = HoldRun(TINY, seed=7, hold_run=5, seconds=1.5)
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
