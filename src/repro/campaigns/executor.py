"""The campaign executor: expand, skip, run, commit, canonicalize.

The control loop is deliberately dumb — all the intelligence lives in
the determinism guarantees around it:

1. expand the spec into shards (pure function of the spec);
2. ask the store which shard indices are already committed for this
   ``(campaign, spec hash, git revision)`` and skip them;
3. group the remaining shards into jobs — the shards of one run block
   together, the first shard alone — and submit each job (its points'
   experiments on the campaign seed, and its run-index range) to one
   :class:`~repro.experiments.pool.WorkerPool`;
4. collect each shard's outcomes and commit the job's results and
   merged deterministic metrics in one transaction;
5. when every shard is present, mark the campaign complete and
   atomically replace the working store with its canonical
   byte-deterministic rebuild.

**Block jobs.**  Every pending shard of one run range forms one job
(:func:`_jobs`): under common random numbers a run index has one
placement and one code assignment for every point of the block on one
topology, so a worker running each index through all of the block's
points builds each of the run's snapshots once, decides each of its
cells once, resumes each cell's M-NDP closure across ``nu``, and drops
the snapshot; the driver pays one commit for the block.  A job's
points run with those sharing a snapshot adjacent, and within them
those sharing a cell (``nu`` last), whatever the axis names sort to.
A block with fewer run indices than the pool has workers is cut into
*cell jobs* (its consecutive shards differing only in ``nu``), so one
job does not idle the other workers.  The launch's first pending shard
is a job of its own, so the first checkpoint lands after one shard's
runs, not a whole cold block's.  ``max_shards`` cuts the pending
shards before they group.

The whole grid executes on one pool (workers and their artifact
caches survive across jobs), and the loop keeps one job per worker in
flight behind the job it is waiting on: while it waits on job N, jobs
N+1 .. N+w of a ``w``-worker pool are already submitted, so every
worker stays busy, and a worker that finishes a later job first
starts the next one instead of idling.  Jobs may finish in any order,
but the loop waits on them, and commits them, strictly in shard
order; job N's SQLite commit runs on the main thread while
N+1 .. N+w compute, and job N+w+1 is submitted right after it.  With
a single worker the pool runs in-process (forking one worker to do
what the parent could do inline is pure overhead) and each job is
submitted when the loop reaches it; the same submit → wait →
``collect_outcomes`` (per shard) → ``write_shard`` loop then simply
runs each job when it is waited on.  Because a shard's results are a
pure function of ``(spec, shard)``, the store bytes are unaffected by
the worker count or the grouping.

A SIGKILL anywhere in steps 3-4 loses at most the committing job plus
the ``w`` in-flight jobs behind it; committed shards are the only
durable state, they always form a prefix of the pending shards in
order, and the next ``resume`` re-executes exactly the lost ones, so
the final store is bit-identical to an uninterrupted run's.

Self-healing (the supervision layer):

- Worker deaths inside a shard are absorbed by the pool supervisor
  (respawn + seed-pure retry, see
  :class:`~repro.experiments.pool.SupervisionPolicy`); the executor
  never sees them.
- A run that exhausts its retry budget comes back as a **quarantined**
  failure: the executor persists one failure record per poisoned run,
  leaves the shard uncommitted, and moves on (a run index quarantined
  inside a job fails in every shard of the job).  Plain resume
  skips quarantined shards; ``retry_quarantined=True`` clears the
  records and re-executes them.
- Supervision itself giving up (respawn budget exhausted, spawn
  failure) triggers **graceful degradation** instead of an exception:
  the multiprocess pool is swapped for an in-process one and every
  uncommitted in-flight job re-runs on it in shard order, announced
  loudly on the progress sink and recorded as one infrastructure
  event.  Both rungs produce bit-identical results, so degradation
  changes throughput, never bytes.
"""

from __future__ import annotations

import itertools
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.campaigns.spec import CampaignSpec, Shard
from repro.campaigns.store import (
    INFRASTRUCTURE_KIND,
    QUARANTINE_KIND,
    CampaignStore,
    ShardRows,
    current_git_revision,
)
from repro.errors import (
    ConfigurationError,
    ParallelExecutionError,
    WorkerPoolError,
    is_quarantined_failure,
)
from repro.experiments.pool import (
    PendingRun,
    SupervisionPolicy,
    WorkerPool,
    available_cpu_count,
    collect_outcomes,
)
from repro.experiments.runner import NetworkExperiment
from repro.obs import current
from repro.obs import names as _names
from repro.utils.fileio import atomic_write_text
from repro.utils.validation import check_positive

__all__ = ["CampaignStatus", "run_campaign"]


@dataclass(frozen=True)
class CampaignStatus:
    """What one ``run_campaign`` invocation did."""

    campaign_id: str
    spec_hash: str
    git_revision: str
    shards_total: int
    shards_skipped: int
    shards_executed: int
    runs_executed: int
    complete: bool
    canonical_digest: str
    #: Quarantine records present in the store when this invocation
    #: returned (store-wide for this key, not just this invocation).
    runs_quarantined: int = 0
    shards_quarantined: int = 0
    #: Engine-degradation messages emitted by this invocation.
    degraded: Tuple[str, ...] = field(default=())

    @property
    def was_noop(self) -> bool:
        """True when every shard was already in the store."""
        return self.shards_executed == 0 and self.complete


def _self_sigkill() -> None:
    """Deliver an uncatchable SIGKILL to this process.

    The ``--kill-after-shards`` testing hook uses the real signal (not
    ``sys.exit``) so the interruption path exercised by tests and the
    CI smoke is byte-for-byte the one a ``kill -9`` or OOM kill takes:
    no ``atexit``, no ``finally``, no sqlite connection cleanup.
    """
    os.kill(os.getpid(), signal.SIGKILL)


#: Pending shards of one run range that the pool runs as one job, in
#: the order their points run (:func:`_jobs`).
Job = Tuple[Shard, ...]

#: The grid axes a run's field snapshot reads (see
#: :meth:`~repro.experiments.runner.NetworkExperiment.snapshot_key`).
_TOPOLOGY_AXES = ("n_nodes", "codes_per_node", "share_count")


def _topology(shard: Shard) -> Tuple[Any, ...]:
    """The axis values of ``shard``'s point that its snapshots read."""
    return tuple(
        param for param in shard.point.params if param[0] in _TOPOLOGY_AXES
    )


def _cell(shard: Shard) -> Tuple[Any, ...]:
    """Everything about ``shard`` but its point's ``nu``."""
    return (
        shard.run_start,
        shard.run_stop,
        tuple(param for param in shard.point.params if param[0] != "nu"),
    )


def _ordered(shards: List[Shard]) -> Job:
    """``shards`` with those that share a run's snapshot adjacent, and
    within them those that share a cell, in shard order otherwise (so
    ``nu`` varies last), whatever the axis names sort to."""
    topologies: Dict[Tuple[Any, ...], int] = {}
    cells: Dict[Tuple[Any, ...], int] = {}
    # Each key ranks by its first appearance in shard order.
    return tuple(sorted(shards, key=lambda shard: (
        topologies.setdefault(_topology(shard), len(topologies)),
        cells.setdefault(_cell(shard), len(cells)),
    )))


def _jobs(pending: List[Shard], workers: int) -> List[Job]:
    """Group ``pending`` into pool jobs, in shard order.

    Every pending shard of one run range forms one *block job*: a
    worker runs each run index through all of the block's points, so
    the run's snapshot is built once and dropped, and one commit
    covers the block.  A block with fewer run indices than ``workers``
    would leave workers idle, so it is cut into *cell jobs* instead:
    consecutive shards whose points differ only in ``nu``.  The first
    pending shard is always a job of its own, so the launch's first
    checkpoint still lands after one shard's runs.  Within a job the
    shards run in :func:`_ordered` order.
    """
    jobs = [tuple(pending[:1])] if pending else []
    for _, block in itertools.groupby(
        pending[1:], key=attrgetter("run_start")
    ):
        shards = list(block)
        if shards[0].n_runs >= workers:
            jobs.append(_ordered(shards))
        else:
            jobs.extend(
                tuple(cell)
                for _, cell in itertools.groupby(shards, key=_cell)
            )
    return jobs


def _submit_job(
    pool: WorkerPool, spec: CampaignSpec, job: Job
) -> PendingRun:
    """Submit one job's run-index range, through each of its shards'
    point experiments, to ``pool``."""
    experiments = tuple(
        NetworkExperiment(
            spec.point_config(shard.point),
            seed=shard.point.seed,
            strategy=spec.point_strategy(shard.point),
            mndp_rounds=spec.mndp_rounds,
            sample_latency=spec.sample_latency,
            link_model=spec.point_link_model(shard.point),
            collect_metrics=spec.collect_metrics,
            compute_backend=spec.compute_backend,
            phy_backend=spec.phy_backend,
        )
        for shard in job
    )
    return pool.submit(experiments, job[0].run_indices)


def run_campaign(
    spec: CampaignSpec,
    store_path: str,
    processes: Optional[int] = None,
    max_shards: Optional[int] = None,
    kill_after_shards: Optional[int] = None,
    git_revision: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    retry_quarantined: bool = False,
    supervision: Optional[SupervisionPolicy] = None,
    execution_faults: Any = None,
) -> CampaignStatus:
    """Launch or resume ``spec`` against the store at ``store_path``.

    Launching and resuming are the same operation: shards already
    committed under ``(spec.name, spec hash, git revision)`` are
    skipped, the rest execute as jobs (the shards of one run block
    together) with one job per worker in flight behind the one being
    committed, and commit in shard-index order, one transaction per
    job.
    Re-invoking on a finished campaign is a no-op that leaves the
    store untouched.  A store that fails verification on open raises
    ``ConfigurationError`` before anything runs, and is left as it
    was (see :class:`~repro.campaigns.store.CampaignStore`).

    Parameters
    ----------
    processes:
        Worker processes of the campaign's pool, and the number of
        jobs kept in flight behind the one being committed (at
        least 1; a single worker runs in-process, one job at a
        time).  A run block of fewer runs than this runs as cell
        jobs.  Defaults to the CPUs available to this process.
    max_shards:
        Stop gracefully after executing this many shards (testing and
        budgeted execution); the campaign stays resumable.
    kill_after_shards:
        Testing hook: SIGKILL this process immediately after the
        commit that brings the shards committed by this invocation to
        at least N, simulating a hard crash mid-campaign (the jobs
        then in flight are lost).
    git_revision:
        Override the revision key (defaults to ``git rev-parse HEAD``).
    progress:
        Optional line sink for human-readable progress.
    retry_quarantined:
        Clear this campaign's quarantine records and re-execute their
        shards.  Plain resume (the default) skips quarantined shards —
        a run that repeatedly killed its worker will do so again
        unless something changed.
    supervision:
        Pool supervision policy override.  Defaults to a policy built
        from the spec's ``max_run_retries``, so retry budgets are part
        of the campaign's declarative description.
    execution_faults:
        Test-only chaos hook forwarded to the worker boundary (see
        :mod:`repro.faults.execution`); the in-process mode ignores it
        (there is no worker process to kill).
    """
    if processes is not None:
        check_positive("processes", processes)
    if max_shards is not None and max_shards < 0:
        raise ConfigurationError("max_shards must be >= 0")
    revision = git_revision or current_git_revision()
    shards = spec.shards()
    spec_hash = spec.spec_hash()
    emit = progress or (lambda line: None)
    registry = current()
    policy = supervision or SupervisionPolicy(
        max_run_retries=spec.max_run_retries
    )
    workers = processes or available_cpu_count()

    executed = 0
    runs_executed = 0
    degradations: List[str] = []
    with CampaignStore(store_path) as store:
        store.register_campaign(spec, revision)

        def _open_pool(worker_count: int) -> WorkerPool:
            return WorkerPool(
                processes=worker_count,
                policy=policy,
                execution_faults=execution_faults,
            )

        def _degrade(shard_index: int, error: BaseException) -> WorkerPool:
            """Announce + persist the one engine degradation and
            return the in-process pool that replaces the failed one."""
            registry.inc(_names.POOL_DEGRADED)
            message = (
                f"supervision gave up on engine 'pool' at shard "
                f"{shard_index} ({error}); degrading to 'in-process'"
            )
            emit("!! " + message)
            # Run index -1 marks an engine event, not a run.
            store.record_failure(
                spec.name, spec_hash, revision, shard_index, -1,
                INFRASTRUCTURE_KIND, 0, message,
            )
            degradations.append(message)
            return _open_pool(0)

        done = store.completed_shards(spec.name, spec_hash, revision)
        # 'complete' is only ever written by the canonical export, so
        # it also certifies the file is already in canonical form.
        already_complete = (
            store.campaign_status(spec.name, spec_hash, revision)
            == "complete"
        )
        skipped = len(done)
        if skipped:
            registry.inc(_names.CAMPAIGNS_RESUMED)
            registry.inc(_names.CAMPAIGNS_SHARDS_SKIPPED, skipped)
            emit(
                f"resuming: {skipped}/{len(shards)} shards already "
                f"in store"
            )
        quarantined_shards = store.quarantined_shards(
            spec.name, spec_hash, revision
        )
        if quarantined_shards and retry_quarantined:
            cleared = store.clear_failures(
                spec.name, spec_hash, revision, kind=QUARANTINE_KIND
            )
            emit(
                f"retry-quarantined: cleared {cleared} quarantine "
                f"record(s); re-executing "
                f"{len(quarantined_shards)} shard(s)"
            )
            quarantined_shards = frozenset()
        elif quarantined_shards:
            emit(
                f"skipping {len(quarantined_shards)} quarantined "
                f"shard(s); resume with --retry-quarantined to "
                f"re-execute them"
            )
        pending: List[Shard] = []
        for shard in shards:
            if shard.index in done:
                continue
            if shard.index in quarantined_shards:
                continue
            if max_shards is not None and len(pending) >= max_shards:
                break
            pending.append(shard)

        # The engine ladder has two rungs, both bit-identical: a
        # multiprocess pool degrades to the in-process one.
        try:
            pool = _open_pool(workers if pending and workers > 1 else 0)
        except (WorkerPoolError, OSError) as error:
            pool = _degrade(pending[0].index, error)
        # Jobs submitted and not yet committed, in shard order.  A
        # ``None`` handle is a job the broken pool refused; waiting on
        # it resubmits, which raises and degrades.
        window: Deque[Tuple[Job, Optional[PendingRun]]] = deque()
        upcoming = iter(_jobs(pending, workers))

        def _fill(pool: WorkerPool) -> None:
            """Submit jobs until ``pool.processes`` of them queue
            behind the head of the window (none in-process, where a
            job runs only when it is waited on)."""
            while len(window) <= pool.processes:
                job = next(upcoming, None)
                if job is None:
                    return
                try:
                    handle: Optional[PendingRun] = _submit_job(
                        pool, spec, job
                    )
                except WorkerPoolError:
                    handle = None
                window.append((job, handle))

        def _quarantine(shard: Shard, error: ParallelExecutionError) -> None:
            """Record ``shard``'s quarantined runs; re-raise ``error``
            if any of its failures is not a quarantine."""
            quarantined = [
                (index, tb)
                for index, tb in error.failures
                if is_quarantined_failure(tb)
            ]
            if len(quarantined) != len(error.failures):
                # Genuine run failures (bad config, bug in a
                # component) are not supervision's domain: surface
                # them unchanged.
                raise error
            for run_index, tb in quarantined:
                store.record_failure(
                    spec.name, spec_hash, revision,
                    shard.index, run_index, QUARANTINE_KIND,
                    policy.max_run_retries + 1, tb,
                )
            registry.inc(_names.CAMPAIGNS_SHARDS_QUARANTINED)
            registry.inc(
                _names.CAMPAIGNS_RUNS_QUARANTINED, len(quarantined)
            )
            emit(
                f"!! shard {shard.index + 1}/{len(shards)}: "
                f"{len(quarantined)} run(s) quarantined "
                f"(worker killed on every attempt); "
                f"shard left uncommitted — resume with "
                f"--retry-quarantined to re-execute"
            )

        try:
            elapsed_total = 0.0
            while True:
                # With one job per worker behind the head, a worker
                # that finishes a later job first takes the next one
                # instead of idling while the loop still waits on the
                # head, and the head's commit overlaps their compute.
                _fill(pool)
                if not window:
                    break
                job, handle = window[0]
                started = time.perf_counter()
                while True:
                    try:
                        outcomes = (
                            handle or _submit_job(pool, spec, job)
                        ).wait()
                        break
                    except (WorkerPoolError, OSError) as error:
                        # Supervision itself gave up: swap in the
                        # in-process pool and re-run every uncommitted
                        # job in order (identical bits on either rung).
                        if not pool.processes:
                            raise
                        registry.inc(
                            _names.CAMPAIGNS_SHARDS_RETRIED,
                            sum(len(queued) for queued, _ in window),
                        )
                        pool.close()
                        pool = _degrade(job[0].index, error)
                        for position, (queued, _) in enumerate(list(window)):
                            window[position] = (
                                queued, _submit_job(pool, spec, queued)
                            )
                        handle = window[0][1]
                window.popleft()
                finished: List[ShardRows] = []
                for shard, shard_outcomes in sorted(
                    zip(job, outcomes), key=lambda pair: pair[0].index
                ):
                    try:
                        result = collect_outcomes(shard_outcomes)
                    except ParallelExecutionError as error:
                        _quarantine(shard, error)
                        continue
                    finished.append((
                        shard,
                        result.runs,
                        result.merged_metrics()
                        if spec.collect_metrics else None,
                    ))
                if not finished:
                    continue
                # One transaction for the whole job.
                store.write_shard(
                    spec, revision, *finished[0], more=finished[1:]
                )
                registry.inc(_names.CAMPAIGNS_STORE_COMMITS)
                elapsed = time.perf_counter() - started
                elapsed_total += elapsed
                job_runs = sum(shard.n_runs for shard, _, _ in finished)
                rate = job_runs / elapsed if elapsed > 0 else 0.0
                for shard, _, _ in finished:
                    registry.record_seconds(
                        _names.CAMPAIGNS_SHARD_SECONDS,
                        elapsed / len(finished),
                    )
                    executed += 1
                    runs_executed += shard.n_runs
                    registry.inc(_names.CAMPAIGNS_SHARDS_COMPLETED)
                    registry.inc(
                        _names.CAMPAIGNS_RUNS_EXECUTED, shard.n_runs
                    )
                    eta = (elapsed_total / executed) * (
                        len(pending) - executed
                    )
                    emit(
                        f"shard {shard.index + 1}/{len(shards)} "
                        f"committed (point {shard.point.index}, runs "
                        f"{shard.run_start}..{shard.run_stop - 1}) "
                        f"[{rate:.1f} runs/s, ETA {eta:.1f}s]"
                    )
                if (
                    kill_after_shards is not None
                    and executed >= kill_after_shards
                ):
                    emit(
                        f"kill-after-shards={kill_after_shards}: "
                        f"SIGKILL"
                    )
                    _self_sigkill()
        finally:
            pool.close()
        done = store.completed_shards(spec.name, spec_hash, revision)
        complete = len(done) == len(shards)
        quarantine_records = store.failure_records(
            spec.name, spec_hash, revision, kind=QUARANTINE_KIND
        )

    runs_quarantined = len(quarantine_records)
    shards_quarantined = len(
        {record["shard_index"] for record in quarantine_records}
    )
    if complete and not already_complete:
        _canonicalize(
            store_path, (spec.name, spec_hash, revision)
        )
        with CampaignStore(store_path) as store:
            digest = store.canonical_digest()
        _write_summary_sidecar(store_path, spec, revision, digest)
        emit(f"campaign complete; canonical store at {store_path}")
    else:
        with CampaignStore(store_path) as store:
            digest = store.canonical_digest()
        if complete:
            emit("campaign already complete; store untouched")
        else:
            remaining = len(shards) - len(done)
            note = (
                f" ({shards_quarantined} of them quarantined)"
                if shards_quarantined else ""
            )
            emit(
                f"stopped with {remaining} shards "
                f"remaining{note}; resume with the same spec to "
                f"continue"
            )

    return CampaignStatus(
        campaign_id=spec.name,
        spec_hash=spec_hash,
        git_revision=revision,
        shards_total=len(shards),
        shards_skipped=skipped,
        shards_executed=executed,
        runs_executed=runs_executed,
        complete=complete,
        canonical_digest=digest,
        runs_quarantined=runs_quarantined,
        shards_quarantined=shards_quarantined,
        degraded=tuple(degradations),
    )


def _canonicalize(store_path, campaign_key) -> None:
    """Atomically replace the working store with its canonical form,
    stamping ``campaign_key`` complete in the exported rows."""
    tmp_path = store_path + ".canonical.tmp"
    with CampaignStore(store_path) as store:
        store.export_canonical(tmp_path, mark_complete=campaign_key)
    os.replace(tmp_path, store_path)


def _write_summary_sidecar(
    store_path: str,
    spec: CampaignSpec,
    git_revision: str,
    digest: str,
) -> None:
    """A small JSON sidecar for dashboards and CI artifact diffing.

    Written through the same atomic helper as ``--metrics-out``; an
    interrupt can never leave a truncated sidecar next to a valid
    store.
    """
    import json

    summary = {
        "campaign_id": spec.name,
        "spec_hash": spec.spec_hash(),
        "git_revision": git_revision,
        "canonical_digest": digest,
        "points": len(spec.points()),
        "shards": len(spec.shards()),
        "runs_per_point": spec.runs_per_point,
    }
    atomic_write_text(
        store_path + ".summary.json",
        json.dumps(summary, indent=2, sort_keys=True),
    )
