"""Tests for the persistent worker pool.

The load-bearing property is the equivalence gate: serial, in-process,
one-shot and persistent-pool execution must produce bit-identical
outcomes and per-run metrics, for one call and across many reusing
calls.
"""

import os
import time
from dataclasses import dataclass

import pytest

from repro.core.config import JRSNDConfig
from repro.errors import (
    ConfigurationError,
    ParallelExecutionError,
    WorkerPoolError,
)
from repro.experiments.pool import (
    SupervisionPolicy,
    WorkerPool,
    adaptive_chunksize,
    available_cpu_count,
)
from repro.experiments.runner import NetworkExperiment
from repro.obs import installed
from repro.obs import names as _names
from repro.obs.registry import MetricsRegistry

#: The real ``run_once``, for stubs that fail some runs and pass the
#: rest through.
RUN_ONCE = NetworkExperiment.run_once

TINY = JRSNDConfig(
    n_nodes=120,
    codes_per_node=12,
    share_count=10,
    n_compromised=5,
    field_width=1200.0,
    field_height=1200.0,
    tx_range=260.0,
)
TINY_B = TINY.replace(n_compromised=10)


@dataclass(frozen=True)
class StartRecorder:
    """Execution-fault hook that appends ``pid index time`` to ``path``
    before every run and then holds the worker for ``hold`` seconds, so
    each run occupies its worker for at least that long."""

    path: str
    hold: float = 0.5

    def before_run(self, run_index, attempt):
        with open(self.path, "a") as handle:
            handle.write(f"{os.getpid()} {run_index} {time.time()}\n")
        time.sleep(self.hold)


@pytest.fixture
def pool():
    with WorkerPool(processes=2) as warm_pool:
        yield warm_pool


class TestAvailableCpuCount:
    def test_positive(self):
        assert available_cpu_count() >= 1

    def test_uses_affinity_mask_when_available(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 2, 5},
            raising=False,
        )
        assert available_cpu_count() == 3

    def test_falls_back_without_affinity(self, monkeypatch):
        """Platforms without ``sched_getaffinity`` (macOS, Windows)
        fall back to the machine count."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        import multiprocessing

        assert available_cpu_count() == multiprocessing.cpu_count()

    def test_falls_back_on_oserror(self, monkeypatch):
        def broken(pid):
            raise OSError("no affinity for you")

        monkeypatch.setattr(
            os, "sched_getaffinity", broken, raising=False
        )
        import multiprocessing

        assert available_cpu_count() == multiprocessing.cpu_count()


class TestAdaptiveChunksize:
    def test_targets_four_chunks_per_worker(self):
        assert adaptive_chunksize(100, 2) == 13
        assert adaptive_chunksize(8, 2) == 1
        assert adaptive_chunksize(64, 4) == 4

    def test_bounds(self):
        assert adaptive_chunksize(0, 2) == 1
        assert adaptive_chunksize(10_000, 2) == 32


class TestUnitOfWork:
    """The pool ships the experiment itself with every chunk."""

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 8},
            {"config": TINY_B},
            {"mndp_rounds": 2},
            {"link_model": "independent"},
            {"collect_metrics": True},
            {"phy_backend": "chipless"},
            {"sample_latency": True},
        ],
    )
    def test_pool_honours_every_experiment_parameter(self, override):
        """A pooled run of a shipped experiment equals its serial run,
        whichever constructor parameter is set."""
        kwargs = {"seed": 7}
        kwargs.update(override)
        config = kwargs.pop("config", TINY)
        experiment = NetworkExperiment(config, **kwargs)
        with WorkerPool(processes=1) as pool:
            result = pool.run(experiment, [0, 1])
        assert result.runs == experiment.run(2).runs

    def test_bad_parameter_raises_in_the_caller(self):
        """Validation happens where the experiment is built, before
        any pool is involved, so the error type does not depend on the
        worker count."""
        with pytest.raises(ConfigurationError, match="link_model"):
            NetworkExperiment(TINY, seed=7, link_model="bogus")

    @pytest.mark.parametrize("processes", [0, 2])
    def test_submit_rejects_non_experiments(self, processes):
        """A wrong work item is refused before anything is queued, and
        the pool keeps running valid jobs."""
        experiment = NetworkExperiment(TINY, seed=7)
        with WorkerPool(processes=processes) as pool:
            with pytest.raises(ConfigurationError, match="NetworkExperiment"):
                pool.submit(object(), [0])
            result = pool.run(experiment, [0])
            assert not pool.broken
        assert result.runs == (experiment.run_once(0),)


class TestEquivalence:
    def test_serial_fresh_and_persistent_are_identical(self, pool):
        """The headline gate: ``experiment.run``, the in-process mode,
        a fresh two-worker pool and a persistent pool give the same
        runs and the same merged counter totals."""
        experiment = NetworkExperiment(TINY, seed=11, collect_metrics=True)
        serial = experiment.run(4)
        with WorkerPool(processes=0) as inline_pool:
            inline = inline_pool.run(experiment, range(4))
        with WorkerPool(processes=2) as fresh_pool:
            fresh = fresh_pool.run(experiment, range(4))
        warm = pool.run(experiment, range(4))
        assert serial.runs == inline.runs == fresh.runs == warm.runs
        assert (
            serial.merged_metrics().counters
            == inline.merged_metrics().counters
            == fresh.merged_metrics().counters
            == warm.merged_metrics().counters
        )

    def test_reuse_across_points_and_revisits(self, pool):
        """A pool cycling through several points — and revisiting the
        first — keeps producing exactly the serial results."""
        plan = [(TINY, 3), (TINY_B, 5), (TINY, 3)]
        for config, seed in plan:
            experiment = NetworkExperiment(
                config, seed=seed, collect_metrics=True
            )
            serial = experiment.run(3)
            warm = pool.run(experiment, range(3))
            assert warm.runs == serial.runs
            assert (
                warm.merged_metrics().counters
                == serial.merged_metrics().counters
            )

    def test_run_indices_subset(self, pool):
        experiment = NetworkExperiment(TINY, seed=11)
        part = pool.run(experiment, [2, 3, 4])
        assert part.runs == experiment.run(6).runs[2:5]


class TestConcurrentJobs:
    """Jobs submitted back to back share the pool's workers."""

    def test_back_to_back_jobs_run_side_by_side(self, tmp_path):
        """Two one-run jobs on a two-worker pool start on different
        workers within one hold of each other: the second job does not
        wait for the first to finish."""
        recorder = StartRecorder(str(tmp_path / "starts.txt"))
        experiment = NetworkExperiment(TINY, seed=7)
        with WorkerPool(processes=2, execution_faults=recorder) as pool:
            first = pool.submit(experiment, [0])
            second = pool.submit(experiment, [1])
            outcomes = second.wait() + first.wait()
        with open(recorder.path) as handle:
            starts = {
                int(index): (int(pid), float(stamp))
                for pid, index, stamp in (
                    line.split() for line in handle
                )
            }
        assert sorted(starts) == [0, 1]
        assert starts[0][0] != starts[1][0]
        assert abs(starts[0][1] - starts[1][1]) < recorder.hold
        outcomes.sort(key=lambda outcome: outcome[0])
        assert [result for _, result, _ in outcomes] == [
            experiment.run_once(0), experiment.run_once(1)
        ]

    def test_concurrent_jobs_are_bit_identical_to_serial(self, pool):
        """Many jobs in flight at once, of two different points and
        uneven sizes, each resolve to exactly their serial runs."""
        plan = [(TINY, 3, [0, 1, 2]), (TINY_B, 5, [4]), (TINY, 3, [3]),
                (TINY_B, 5, [0, 1, 2, 3])]
        handles = [
            (NetworkExperiment(config, seed=seed), indices,
             pool.submit(NetworkExperiment(config, seed=seed), indices))
            for config, seed, indices in plan
        ]
        for experiment, indices, handle in reversed(handles):
            outcomes = sorted(handle.wait(), key=lambda o: o[0])
            assert [index for index, _, _ in outcomes] == indices
            assert [result for _, result, _ in outcomes] == [
                experiment.run_once(index) for index in indices
            ]


class TestPoolMetrics:
    def test_counters_observe_reuse(self):
        """Three jobs on one pool spawn its workers once."""
        registry = MetricsRegistry()
        with installed(registry):
            with WorkerPool(processes=2) as pool:
                for config in (TINY, TINY, TINY_B):
                    pool.run(NetworkExperiment(config, seed=11), range(4))
            counters = registry.snapshot().counters
        assert counters[_names.POOL_WORKERS_SPAWNED] == 2
        assert counters[_names.POOL_TASKS_DISPATCHED] >= 3

    def test_pool_counters_never_enter_run_snapshots(self):
        """pool.* is parent-side observability; per-run metrics (the
        bytes that land in campaign stores) must not contain it."""
        registry = MetricsRegistry()
        with installed(registry):
            with WorkerPool(processes=2) as pool:
                result = pool.run(
                    NetworkExperiment(TINY, seed=11, collect_metrics=True),
                    range(2),
                )
        for run in result.runs:
            assert not any(
                name.startswith("pool.")
                for name in run.metrics.counters
            )


class TestFailureSemantics:
    @staticmethod
    def _failing_run_once(self, run_index, snapshot=None):
        if run_index == 1:
            raise RuntimeError(f"synthetic failure in run {run_index}")
        return RUN_ONCE(self, run_index, snapshot)

    def test_run_failures_do_not_break_the_pool(self, monkeypatch):
        """Per-run failures come back as tagged data (exactly like the
        in-process mode) and the pool stays usable."""
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("requires fork start method")
        monkeypatch.setattr(
            NetworkExperiment, "run_once", self._failing_run_once
        )
        with WorkerPool(processes=2) as pool:
            with pytest.raises(ParallelExecutionError) as excinfo:
                pool.run(NetworkExperiment(TINY, seed=11), range(3))
            err = excinfo.value
            assert [index for index, _ in err.failures] == [1]
            assert len(err.completed.runs) == 2
            assert not pool.broken
            # The forked workers keep the patched run_once, so reuse
            # the pool on an index that does not trip it: the pool
            # still accepts and executes work after run failures.
            again = pool.run(NetworkExperiment(TINY, seed=11), [0])
            assert len(again.runs) == 1

    def test_submit_after_close_is_refused(self):
        pool = WorkerPool(processes=2)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ConfigurationError):
            pool.submit(NetworkExperiment(TINY, seed=7), [0])

    def test_empty_indices_refused(self, pool):
        with pytest.raises(ConfigurationError):
            pool.submit(NetworkExperiment(TINY, seed=7), [])

    def test_dead_workers_are_respawned(self, pool):
        """Supervision absorbs worker deaths between jobs: every
        worker is respawned and the job still produces serial bits."""
        for process in pool._processes:
            process.terminate()
            process.join(timeout=10.0)
        serial = NetworkExperiment(TINY, seed=7).run(2)
        result = pool.run(NetworkExperiment(TINY, seed=7), [0, 1])
        assert result.runs == serial.runs
        assert not pool.broken

    def test_exhausted_respawn_budget_breaks_the_pool(self):
        """Infrastructure failure (more deaths than the respawn budget
        allows) surfaces as WorkerPoolError and poisons later
        submissions."""
        policy = SupervisionPolicy(
            max_respawns=0, close_grace=5.0
        )
        with WorkerPool(processes=2, policy=policy) as pool:
            for process in pool._processes:
                process.terminate()
                process.join(timeout=10.0)
            with pytest.raises(WorkerPoolError):
                pool.run(NetworkExperiment(TINY, seed=7), [0, 1])
            with pytest.raises(WorkerPoolError):
                pool.submit(NetworkExperiment(TINY, seed=7), [0])
            assert pool.broken


class TestInProcessMode:
    """``processes=0``: the same engine without a child process."""

    def test_spawns_no_child(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        with WorkerPool(processes=0) as inline:
            assert inline.processes == 0
            handle = inline.submit(NetworkExperiment(TINY, seed=7), [0])
            # Deferred: nothing runs until the handle is waited on.
            assert not handle.done()
            assert len(handle.wait()) == 1
            assert set(multiprocessing.active_children()) == before

    def test_bit_identical_to_two_workers(self):
        experiment = NetworkExperiment(TINY, seed=11, collect_metrics=True)
        with WorkerPool(processes=0) as inline:
            ours = inline.run(experiment, range(4))
        with WorkerPool(processes=2) as pool:
            theirs = pool.run(experiment, range(4))
        assert ours.runs == theirs.runs
        assert (
            ours.merged_metrics().counters
            == theirs.merged_metrics().counters
        )

    def test_jobs_run_in_submission_order_on_wait(self, monkeypatch):
        seen = []
        original = NetworkExperiment.run_once

        def recording(self, run_index, snapshot=None):
            seen.append(run_index)
            return original(self, run_index, snapshot)

        monkeypatch.setattr(NetworkExperiment, "run_once", recording)
        with WorkerPool(processes=0) as inline:
            experiment = NetworkExperiment(TINY, seed=7)
            first = inline.submit(experiment, [0])
            second = inline.submit(experiment, [1])
            assert seen == []
            first.wait()
            assert seen == [0]
            second.wait()
            second.wait()  # resolved once; a second wait re-runs nothing
        assert seen == [0, 1]

    def test_trapped_failure_carries_completed_runs(self, monkeypatch):
        """A trapped run failure surfaces exactly as it does from
        worker processes: a ParallelExecutionError carrying the runs
        that completed."""

        def failing(self, run_index, snapshot=None):
            if run_index == 1:
                raise RuntimeError(f"synthetic failure in run {run_index}")
            return RUN_ONCE(self, run_index, snapshot)

        monkeypatch.setattr(NetworkExperiment, "run_once", failing)
        with WorkerPool(processes=0) as inline:
            with pytest.raises(ParallelExecutionError) as excinfo:
                inline.run(NetworkExperiment(TINY, seed=11), range(3))
        err = excinfo.value
        assert [index for index, _ in err.failures] == [1]
        assert "synthetic failure" in err.failures[0][1]
        assert len(err.completed.runs) == 2

    def test_never_calls_the_execution_fault_hook(self):
        """A WorkerKiller in the caller's process would SIGKILL the
        caller itself; the in-process mode must never invoke it."""
        from repro.faults import WorkerKiller

        class Recording(WorkerKiller):
            def before_run(self, run_index, attempt):
                raise AssertionError("fault hook called in-process")

        faults = Recording(kills={0: 99})
        serial = NetworkExperiment(TINY, seed=7).run(2)
        with WorkerPool(processes=0, execution_faults=faults) as inline:
            result = inline.run(NetworkExperiment(TINY, seed=7), [0, 1])
        assert result.runs == serial.runs

    def test_negative_processes_refused(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(processes=-1)
