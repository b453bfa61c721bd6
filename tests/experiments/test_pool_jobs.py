"""Block and cell jobs: a tuple of experiments submitted as one pool job.

Every chunk of such a job runs each of its run indices through every
experiment in order, on one worker, and the job resolves with one
outcome list per experiment.  Whatever the worker count, each list
equals what submitting that experiment alone gives.
"""

import pytest

from repro.errors import ConfigurationError, WorkerPoolError
from repro.experiments.pool import WorkerPool
from repro.experiments.runner import NetworkExperiment
from repro.experiments.scenarios import preset_config
from tests.injectors import HoldRun

SEED = 2011


def _cell(base="tiny", nus=(3, 1, 2)):
    """The ``nu`` points of one (q, link model) cell."""
    config = preset_config(base)
    return tuple(
        NetworkExperiment(
            config.replace(nu=nu, n_compromised=20),
            seed=SEED,
            link_model="independent",
            collect_metrics=True,
        )
        for nu in nus
    )


def _sorted(outcomes):
    return sorted(outcomes, key=lambda outcome: outcome[0])


@pytest.mark.parametrize("processes", [0, 2])
@pytest.mark.parametrize("base", ["tiny", "tiny-chipless"])
def test_each_list_equals_a_fresh_run(processes, base):
    experiments = _cell(base)
    indices = [0, 3, 1, 2, 5]
    with WorkerPool(processes=processes) as pool:
        per_experiment = pool.submit(experiments, indices).wait()
        alone = pool.submit(experiments[0], indices).wait()
    assert len(per_experiment) == len(experiments)
    for experiment, outcomes in zip(experiments, per_experiment):
        assert [index for index, _, _ in _sorted(outcomes)] == sorted(indices)
        for index, result, failure in outcomes:
            assert failure is None
            fresh = experiment.run_once(index)
            assert result == fresh
            assert (
                result.metrics.deterministic().to_json()
                == fresh.metrics.deterministic().to_json()
            )
    # A bare experiment still resolves with its one list.
    assert _sorted(alone) == _sorted(per_experiment[0])
    # Non-vacuous: the nu points recover different counts.
    assert len({
        sum(result.mndp_successes for _, result, _ in outcomes)
        for outcomes in per_experiment
    }) > 1


def test_a_chunk_runs_every_experiment_before_the_next_index(monkeypatch):
    """In-process, one job: run 0 goes through all three points, then
    run 1, so one snapshot and its cell serve the whole cell."""
    order = []
    real = NetworkExperiment.run_once

    def recording(self, index, snapshot=None):
        order.append((index, self.config.nu))
        return real(self, index, snapshot)

    monkeypatch.setattr(NetworkExperiment, "run_once", recording)
    with WorkerPool(processes=0) as pool:
        pool.submit(_cell(), [0, 1]).wait()
    assert order == [(0, 3), (0, 1), (0, 2), (1, 3), (1, 1), (1, 2)]


@pytest.mark.parametrize("processes", [0, 2])
def test_bad_work_is_refused_before_queueing(processes):
    experiment = _cell()[0]
    with WorkerPool(processes=processes) as pool:
        for bad in ((), (experiment, object()), [experiment]):
            with pytest.raises(ConfigurationError, match="NetworkExperiment"):
                pool.submit(bad, [0])
        with pytest.raises(ConfigurationError, match="one NetworkExperiment"):
            pool.run((experiment,), [0])
        assert pool.run(experiment, [0]).runs == (experiment.run_once(0),)
        assert not pool.broken


def test_a_killed_worker_fails_the_whole_job():
    """Run 1 SIGKILLs its worker in the cell's second point: the job
    fails as one, naming the chunk the worker held, whatever the other
    points of that run already returned."""
    first, second, third = _cell()
    killer = HoldRun(
        second.config, SEED, hold_run=1, kill=True,
        link_model="independent", collect_metrics=True,
    )
    with WorkerPool(processes=2) as pool:
        handle = pool.submit((first, killer, third), [0, 1, 2])
        with pytest.raises(
            WorkerPoolError, match=r"died holding run indices \[1\]"
        ):
            handle.wait(timeout=60.0)
        assert pool.broken
