"""Worker death, shutdown and wait timeouts.

Driven through ``tests/injectors.HoldRun``, an experiment whose run of
one index holds or SIGKILLs its worker.  The pool does not replace a
dead worker: the death raises ``WorkerPoolError`` naming the run
indices the worker held and breaks the pool, and recovery is the
caller's (``campaign resume``).
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

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
        """A timed-out ``wait`` cancels nothing: the job stays queued
        behind the held one, a later ``wait`` collects it with the
        serial bits, and the pool stays usable."""
        serial = NetworkExperiment(TINY, seed=7).run(1)
        with WorkerPool(processes=1) as pool:
            experiment = HoldRun(TINY, seed=7, hold_run=5, seconds=1.5)
            slow = pool.submit(experiment, [5])
            queued = pool.submit(experiment, [0])
            with pytest.raises(WorkerPoolError, match="within 0.2 s"):
                queued.wait(timeout=0.2)
            assert not queued.done()
            assert not pool.broken
            # The later wait collects the held job on the way.
            (outcome,) = queued.wait(timeout=30.0)
            assert outcome[1:] == (serial.runs[0], None)
            assert slow.done()
            assert [result for _, result, _ in slow.wait()] == [
                NetworkExperiment(TINY, seed=7).run_once(5)
            ]
            assert pool.run(experiment, [0]).runs == serial.runs
            assert not pool.broken


class TestCallerDrivenDispatch:
    """The pool starts no thread: the caller's ``submit`` and ``wait``
    drive it, and nothing it leaves behind outlives the caller."""

    def test_lifecycle_starts_no_thread(self):
        """submit → wait → killed worker → close on two workers leaves
        the interpreter's threads as they were at every stage."""
        before = threading.enumerate()
        pool = WorkerPool(processes=2)
        try:
            handle = pool.submit(NetworkExperiment(TINY, seed=7), [0, 1])
            assert threading.enumerate() == before
            assert len(handle.wait(timeout=60.0)) == 2
            killer = HoldRun(TINY, seed=7, hold_run=1, kill=True)
            with pytest.raises(WorkerPoolError, match=r"\[1\]"):
                pool.run(killer, [0, 1])
            assert threading.enumerate() == before
        finally:
            pool.close()
        assert threading.enumerate() == before

    def test_interrupted_wait_breaks_the_pool(self):
        """A ``KeyboardInterrupt`` inside a multi-process ``wait``
        breaks the pool and fails every open job: a second ``wait``
        re-raises at once instead of blocking on a chunk nobody
        holds."""

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        held = HoldRun(TINY, seed=7, hold_run=0, seconds=2.0)
        with WorkerPool(processes=2) as pool:
            handle = pool.submit(held, [0])
            beside = pool.submit(held, [0])
            previous = signal.signal(signal.SIGALRM, interrupt)
            try:
                signal.setitimer(signal.ITIMER_REAL, 0.3)
                with pytest.raises(KeyboardInterrupt):
                    handle.wait(timeout=30.0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            assert pool.broken
            start = time.monotonic()
            for job in (handle, beside):
                assert job.done()
                with pytest.raises(KeyboardInterrupt):
                    job.wait(timeout=30.0)
            assert time.monotonic() - start < 1.0
            with pytest.raises(WorkerPoolError, match="broken"):
                pool.submit(held, [4])


#: A child interpreter: a two-worker pool whose first worker holds run
#: 0 for a few seconds, then the interpreter SIGKILLs itself.
ORPHAN_SCRIPT = """
import os, signal, sys, time
from repro.core.config import JRSNDConfig
from repro.experiments.pool import WorkerPool
from tests.injectors import HoldRun
config = JRSNDConfig(
    n_nodes=120, codes_per_node=12, share_count=10, n_compromised=5,
    field_width=1200.0, field_height=1200.0, tx_range=260.0,
)
pool = WorkerPool(processes=2)
pool.submit(HoldRun(config, seed=7, hold_run=0, seconds=3.0), [0, 1])
time.sleep(0.5)
print(" ".join(str(process.pid) for process in pool._processes))
sys.stdout.flush()
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid):
    """True while ``pid`` names a live process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process state from /proc"
)
def test_workers_of_a_killed_parent_exit(tmp_path):
    """A SIGKILLed parent leaves no orphaned worker: every worker
    closes the parent-side pipe ends it inherited, so the idle one sees
    EOF at once and the held one fails to reply once its chunk is done,
    and both exit within 10 s."""
    root = Path(__file__).resolve().parents[2]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
        ),
    )
    # A file, not a pipe: an orphaned worker would hold a pipe open.
    out = tmp_path / "pids.txt"
    with open(out, "w") as handle:
        child = subprocess.run(
            [sys.executable, "-c", ORPHAN_SCRIPT], env=env, cwd=str(root),
            stdout=handle, stderr=subprocess.DEVNULL, timeout=60,
        )
    assert child.returncode == -signal.SIGKILL
    pids = [int(pid) for pid in out.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10.0
    try:
        while (
            any(_running(pid) for pid in pids)
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
