"""What crosses the process-pool boundary, checked at runtime.

The pool's only unit of work is a :class:`NetworkExperiment`: it is
pickled into every chunk message and a worker runs ``run_once`` on the
copy.  So every experiment the runner can build must survive a pickle
round trip unchanged, and ``WorkerPool.submit`` must refuse anything
else before it is queued, on the in-process and the process pool
alike.
"""

import itertools
import pickle

import pytest

from repro.adversary.jammer import JammerStrategy
from repro.dsss.phy import PHY_BACKENDS
from repro.errors import ConfigurationError
from repro.experiments.pool import WorkerPool
from repro.experiments.runner import NetworkExperiment
from repro.experiments.scenarios import preset_config

STRATEGIES = (JammerStrategy.REACTIVE, JammerStrategy.RANDOM)
LINK_MODELS = ("codes", "independent")


@pytest.mark.parametrize(
    "strategy, link_model, phy_backend",
    list(itertools.product(STRATEGIES, LINK_MODELS, PHY_BACKENDS)),
    ids=lambda value: getattr(value, "name", value),
)
def test_unpickled_experiment_runs_the_same(strategy, link_model, phy_backend):
    experiment = NetworkExperiment(
        preset_config("tiny"),
        seed=11,
        strategy=strategy,
        link_model=link_model,
        collect_metrics=True,
        phy_backend=phy_backend,
    )
    copy = pickle.loads(pickle.dumps(experiment))
    for run_index in (0, 1):
        original = experiment.run_once(run_index)
        shipped = copy.run_once(run_index)
        assert shipped == original
        assert shipped.metrics.counters == original.metrics.counters


def _nested_work():
    def work():
        return None

    return work


@pytest.mark.parametrize("processes", [0, 1])
@pytest.mark.parametrize(
    "work",
    [
        pytest.param(lambda: None, id="lambda"),
        pytest.param(_nested_work(), id="nested-def"),
    ],
)
def test_submit_refuses_anything_but_an_experiment(processes, work):
    experiment = NetworkExperiment(preset_config("tiny"), seed=3)
    with WorkerPool(processes) as pool:
        with pytest.raises(ConfigurationError, match="NetworkExperiment"):
            pool.submit(work, [0])
        # Nothing was queued: the pool still runs the next job, and
        # runs it as the experiment itself would.
        result = pool.run(experiment, [0])
    assert result.runs == (experiment.run_once(0),)
