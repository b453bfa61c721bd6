"""Multiprocess Monte Carlo execution.

The paper averages every point over 100 runs; runs are embarrassingly
parallel (each derives its own seed stream), so :func:`run_parallel`
executes them on a :class:`~repro.experiments.pool.WorkerPool` — the
one execution engine — and returns the same
:class:`~repro.experiments.runner.ExperimentResult` a serial
``NetworkExperiment.run`` would.  Results are bit-identical to the
serial path because each run's randomness depends only on
``(seed, run_index)``.

Robustness and efficiency come from the pool:

- the :class:`~repro.experiments.runner.NetworkExperiment` is built
  (and validated) here, in the caller, so a bad parameter raises
  :class:`~repro.errors.ConfigurationError` before anything is
  dispatched; the pool then ships it with each chunk of run indices;
- run failures never escape the dispatch protocol: they come back
  tagged with their run index, and after all tasks drain the completed
  runs are preserved on the raised
  :class:`~repro.errors.ParallelExecutionError` instead of being lost
  to a bare mid-map traceback;
- outcomes arrive in completion order (fastest drain) and
  :func:`collect_outcomes` reorders them deterministically by run
  index before aggregation, so the returned result is independent of
  worker scheduling;
- tasks are batched with an adaptive ``chunksize``
  (:func:`~repro.experiments.pool.adaptive_chunksize`), cutting
  per-task IPC on many-run sweeps;
- a worker death is respawned and its runs retried (seed-pure, so
  bit-identical) rather than aborting the sweep;
- one worker's worth of runs executes in the pool's in-process mode
  (``processes=0``): no fork, same per-chunk loop;
- a persistent pool can be passed as ``pool=`` to reuse worker
  processes (and their warm artifact caches) across many calls.  In
  every case — in-process, one-shot or persistent pool — the bits are
  the same.

With ``collect_metrics=True`` each run attaches a per-run
:class:`~repro.obs.MetricsSnapshot` to its ``RunResult`` (the
process-global registry of the *parent* is not shared with workers);
``ExperimentResult.merged_metrics()`` then yields counter totals
identical to a serial instrumented run of the same seed.
"""

from __future__ import annotations

import contextlib
from typing import Any, List, Optional, Sequence, Tuple

from repro.adversary.jammer import JammerStrategy
from repro.core.config import JRSNDConfig
from repro.errors import ConfigurationError, ParallelExecutionError
from repro.experiments.pool import (
    SupervisionPolicy,
    WorkerPool,
    available_cpu_count,
)
from repro.experiments.runner import (
    ExperimentResult,
    NetworkExperiment,
    RunResult,
)
from repro.utils.validation import check_positive

__all__ = ["collect_outcomes", "run_parallel"]

_Outcome = Tuple[int, Optional[RunResult], Optional[str]]


def collect_outcomes(
    outcomes: List[_Outcome], runs: int
) -> ExperimentResult:
    """Aggregate tagged outcomes into a result, raising on failures.

    Shared by every caller of the pool: outcomes are reordered
    deterministically by run index, and any failure raises
    :class:`~repro.errors.ParallelExecutionError` carrying the runs
    that did complete.
    """
    outcomes.sort(key=lambda outcome: outcome[0])
    failures = [
        (index, tb) for index, _, tb in outcomes if tb is not None
    ]
    completed = tuple(
        result for _, result, tb in outcomes if tb is None
    )
    if failures:
        failed_indices = ", ".join(str(index) for index, _ in failures)
        raise ParallelExecutionError(
            f"{len(failures)} of {runs} runs failed "
            f"(indices {failed_indices}); first failure:\n"
            f"{failures[0][1]}",
            failures=failures,
            completed=ExperimentResult(runs=completed),
        )
    return ExperimentResult(runs=completed)


def run_parallel(
    config: JRSNDConfig,
    seed: int,
    runs: int,
    processes: Optional[int] = None,
    strategy: JammerStrategy = JammerStrategy.REACTIVE,
    mndp_rounds: int = 1,
    link_model: str = "codes",
    collect_metrics: bool = False,
    compute_backend: str = "vectorized",
    run_indices: Optional[Sequence[int]] = None,
    phy_backend: Optional[str] = None,
    pool: Optional[WorkerPool] = None,
    supervision: Optional[SupervisionPolicy] = None,
    execution_faults: Any = None,
) -> ExperimentResult:
    """Execute ``runs`` snapshots across ``processes`` workers.

    ``processes`` defaults to the CPUs available to *this process*
    (the scheduler affinity mask where the platform exposes one, via
    :func:`~repro.experiments.pool.available_cpu_count`), capped at
    ``runs``.
    Results are identical to ``NetworkExperiment(...).run(runs)``;
    ``compute_backend`` selects the snapshot-pipeline implementation
    just like the serial constructor argument.
    ``phy_backend`` (when set) overrides ``config.phy_backend`` in every
    worker, selecting the message / chip / chipless D-NDP sampling path.

    ``run_indices`` selects which run indices to execute (default
    ``range(runs)``).  A run's randomness depends only on
    ``(seed, run_index)``, so executing indices ``[4, 5, 6, 7]`` here
    yields exactly the runs 4-7 of a full ``range(8)`` sweep — this is
    what lets ``repro.campaigns`` split one sweep point into
    independently checkpointed shards without perturbing any stream.
    When given, ``runs`` must equal ``len(run_indices)``.

    ``pool`` (when set) executes the runs on a persistent
    :class:`~repro.experiments.pool.WorkerPool`: its workers and their
    artifact caches survive across calls, so repeated calls skip the
    per-call process spawn entirely.  ``processes`` is ignored in that
    case (the pool was sized at construction).
    Without a ``pool`` the call opens one for itself and closes it on
    return — in-process when only one worker would run, a supervised
    multiprocess pool otherwise, so worker deaths are respawned and
    retried rather than aborting the sweep.  ``supervision`` tunes
    that policy and ``execution_faults`` is the test-only chaos hook;
    both are ignored when a ``pool`` is passed (it carries its own).

    Raises :class:`~repro.errors.ParallelExecutionError` if any run
    fails, after all tasks have drained — the exception carries every
    failure's index and traceback plus an ``ExperimentResult`` of the
    runs that did complete.
    """
    check_positive("runs", runs)
    if processes is not None:
        check_positive("processes", processes)
    if run_indices is not None:
        indices_list = [int(index) for index in run_indices]
        if len(indices_list) != int(runs):
            raise ConfigurationError(
                f"runs ({runs}) must equal len(run_indices) "
                f"({len(indices_list)})"
            )
        if any(index < 0 for index in indices_list):
            raise ConfigurationError("run_indices must be non-negative")
    indices: Sequence[int] = (
        range(int(runs)) if run_indices is None else indices_list
    )
    experiment = NetworkExperiment(
        config,
        seed=seed,
        strategy=strategy,
        mndp_rounds=mndp_rounds,
        link_model=link_model,
        collect_metrics=collect_metrics,
        compute_backend=compute_backend,
        phy_backend=phy_backend,
    )
    if pool is None:
        workers = min(processes or available_cpu_count(), int(runs))
        engine: Any = WorkerPool(
            processes=workers if workers > 1 else 0,
            policy=supervision,
            execution_faults=execution_faults,
        )
    else:
        engine = contextlib.nullcontext(pool)
    with engine as active:
        outcomes = active.run(experiment, indices)
    return collect_outcomes(outcomes, int(runs))
