"""Monte Carlo runs on the worker pool: ``WorkerPool(p).run`` must
return exactly what ``NetworkExperiment.run`` does."""

import multiprocessing

import pytest

from repro.adversary.jammer import JammerStrategy
from repro.core.config import JRSNDConfig
from repro.errors import SimulationError
from repro.experiments.pool import WorkerPool
from repro.experiments.runner import NetworkExperiment

SMALL = JRSNDConfig(
    n_nodes=300,
    codes_per_node=15,
    share_count=12,
    n_compromised=8,
    field_width=2000.0,
    field_height=2000.0,
    tx_range=300.0,
)

#: The real ``run_once``, for stubs that fail some runs and pass the
#: rest through.
RUN_ONCE = NetworkExperiment.run_once


def run_inline(runs):
    with WorkerPool(0) as inline:
        return inline.run(NetworkExperiment(SMALL, seed=6), range(runs))


class TestRunParallel:
    def test_matches_serial_exactly(self):
        """Per-run seeding depends only on (seed, index), so the
        parallel path reproduces the serial one bit-for-bit."""
        experiment = NetworkExperiment(SMALL, seed=6)
        with WorkerPool(2) as pool:
            parallel = pool.run(experiment, range(4))
        assert parallel.runs == experiment.run(4).runs

    def test_single_worker_path(self):
        experiment = NetworkExperiment(SMALL, seed=6)
        with WorkerPool(0) as inline:
            result = inline.run(experiment, range(2))
        assert result.runs == experiment.run(2).runs

    def test_strategy_and_link_model_forwarded(self):
        """The shipped experiment carries every constructor argument
        to the workers."""
        experiment = NetworkExperiment(
            SMALL, seed=3, strategy=JammerStrategy.RANDOM,
            link_model="independent",
        )
        with WorkerPool(2) as pool:
            parallel = pool.run(experiment, range(2))
        assert parallel.runs == experiment.run(2).runs


class TestInstrumentedParallel:
    def test_counter_totals_match_serial(self):
        """Per-run registries are deterministic, so the merged counter
        totals agree across execution paths for the same seed."""
        experiment = NetworkExperiment(SMALL, seed=6, collect_metrics=True)
        serial = experiment.run(3)
        with WorkerPool(2) as pool:
            parallel = pool.run(experiment, range(3))
        assert parallel.runs == serial.runs
        assert (
            parallel.merged_metrics().counters
            == serial.merged_metrics().counters
        )

    def test_snapshots_survive_pickling(self):
        experiment = NetworkExperiment(SMALL, seed=6, collect_metrics=True)
        with WorkerPool(2) as pool:
            result = pool.run(experiment, range(2))
        for run in result.runs:
            assert run.metrics is not None
            assert run.metrics.counter("experiment.runs") == 1


class TestFailureHandling:
    @staticmethod
    def _failing_run_once(self, run_index, snapshot=None):
        if run_index == 1:
            raise RuntimeError(f"synthetic failure in run {run_index}")
        return RUN_ONCE(self, run_index, snapshot)

    def test_failures_tagged_and_completed_preserved(self, monkeypatch):
        from repro.errors import ParallelExecutionError

        monkeypatch.setattr(
            NetworkExperiment, "run_once", self._failing_run_once
        )
        with pytest.raises(ParallelExecutionError) as excinfo:
            run_inline(3)
        err = excinfo.value
        assert [index for index, _ in err.failures] == [1]
        assert "synthetic failure" in err.failures[0][1]
        assert len(err.completed.runs) == 2

    @pytest.mark.parametrize(
        "exc",
        [
            SimulationError("domain failure"),
            ValueError("numpy shape mismatch"),
            KeyError("missing pool code"),
        ],
        ids=["repro-error", "value-error", "lookup-error"],
    )
    def test_trapped_families_come_back_as_data(self, monkeypatch, exc):
        """Regression for the JRS003 narrowing: the run loop traps the
        concrete :data:`WORKER_TRAPPED_ERRORS` families (not a blanket
        ``except Exception``), and each still travels back tagged with
        its run index instead of aborting the map."""
        from repro.errors import ParallelExecutionError

        def failing(self, run_index, snapshot=None):
            if run_index == 1:
                raise exc
            return RUN_ONCE(self, run_index, snapshot)

        monkeypatch.setattr(NetworkExperiment, "run_once", failing)
        with pytest.raises(ParallelExecutionError) as excinfo:
            run_inline(3)
        err = excinfo.value
        assert [index for index, _ in err.failures] == [1]
        assert type(exc).__name__ in err.failures[0][1]
        assert len(err.completed.runs) == 2

    def test_untrapped_exceptions_propagate(self, monkeypatch):
        """Cancellation and foreign exception types are not swallowed
        into the failure report: they abort the run immediately."""

        class ForeignPluginError(BaseException):
            pass

        def failing(self, run_index, snapshot=None):
            raise ForeignPluginError("not part of the worker taxonomy")

        monkeypatch.setattr(NetworkExperiment, "run_once", failing)
        with pytest.raises(ForeignPluginError):
            run_inline(2)

    def test_trapped_families_are_concrete(self):
        """The worker boundary must never regress to a blanket catch."""
        from repro.errors import WORKER_TRAPPED_ERRORS

        assert Exception not in WORKER_TRAPPED_ERRORS
        assert BaseException not in WORKER_TRAPPED_ERRORS

    def test_error_pickle_round_trip(self):
        """Regression: the default ``Exception.__reduce__`` only keeps
        ``args``, so an instance crossing a process boundary used to
        arrive with ``failures``/``completed`` stripped."""
        import pickle

        from repro.errors import ParallelExecutionError

        original = ParallelExecutionError(
            "2 of 5 runs failed",
            failures=[(1, "Traceback: boom"), (3, "Traceback: bang")],
            completed={"runs": 3},
        )
        restored = pickle.loads(pickle.dumps(original))
        assert str(restored) == str(original)
        assert restored.failures == original.failures
        assert restored.completed == original.completed

    def test_multiprocess_failures_drain_all_tasks(self, monkeypatch):
        """Fork start method propagates the patched method into the
        workers; the map still drains and keeps the good runs."""
        from repro.errors import ParallelExecutionError

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("requires fork start method")
        monkeypatch.setattr(
            NetworkExperiment, "run_once", self._failing_run_once
        )
        with pytest.raises(ParallelExecutionError) as excinfo:
            with WorkerPool(2) as pool:
                pool.run(NetworkExperiment(SMALL, seed=6), range(3))
        err = excinfo.value
        assert [index for index, _ in err.failures] == [1]
        assert len(err.completed.runs) == 2
