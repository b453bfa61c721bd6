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
5. when every shard is present, export the working store's canonical
   byte-deterministic rebuild, marked complete, and atomically replace
   the working store with it.

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
starts the next one instead of idling.  The pool has no thread of its
own: the loop's ``wait`` on job N is what collects every worker's
replies and hands out the next chunks, and submitting job N+w+1 takes
one more such step.  Jobs may finish in any order, but the loop waits
on them, and commits them, strictly in shard order; job N's SQLite
commit runs while N+1 .. N+w compute, and a worker that finishes
during the commit gets its next chunk from the submit or wait that
follows it.  With a single worker the pool runs in-process (forking
one worker to do what the parent could do inline is pure overhead)
and each job is submitted when the loop reaches it; the same submit →
wait → ``collect_outcomes`` (per shard) → ``write_shard`` loop then
simply runs each job when it is waited on.  Because a shard's results
are a pure function of ``(spec, shard)``, the store bytes are
unaffected by the worker count or the grouping.

**Failure and resume.**  Resume is the only recovery.  A SIGKILL
anywhere in steps 3-4 loses at most the committing job plus the ``w``
in-flight jobs behind it; committed shards are the only durable state,
they always form a prefix of the pending shards in order, and the next
``resume`` re-executes exactly the lost ones, so the final store is
bit-identical to an uninterrupted run's.  A pool worker that dies
(OOM kill, crash) breaks the pool: the executor closes it and lets the
:class:`~repro.errors.WorkerPoolError`, which names the run indices
the worker held, propagate with every committed shard kept, and
``resume`` finishes the store.  A run that raises fails its shard with
:class:`~repro.errors.ParallelExecutionError`, the same way.
"""

from __future__ import annotations

import itertools
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.campaigns.spec import CampaignSpec, Shard
from repro.campaigns.store import (
    CampaignStore,
    ShardRows,
    current_git_revision,
)
from repro.experiments.pool import (
    PendingRun,
    WorkerPool,
    available_cpu_count,
    collect_outcomes,
)
from repro.experiments.runner import NetworkExperiment
from repro.obs import current
from repro.obs import names as _names
from repro.utils.fileio import atomic_write_text
from repro.utils.validation import (
    check_count,
    check_non_negative,
    check_positive,
)

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

    @property
    def was_noop(self) -> bool:
        """True when every shard was already in the store."""
        return self.shards_executed == 0 and self.complete

    @property
    def runs_quarantined(self) -> int:
        """Always 0: no run is set aside.  Kept only until Benchmark v2
        drops the read of it in ``perfbench/workloads.py``."""
        return 0

    @property
    def degraded(self) -> Tuple[str, ...]:
        """Always empty: a campaign runs on one engine.  Kept only until
        Benchmark v2 drops the read of it in ``perfbench/workloads.py``."""
        return ()


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
    was (see :class:`~repro.campaigns.store.CampaignStore`).  A pool
    worker that dies raises :class:`~repro.errors.WorkerPoolError`
    once the pool is closed; every shard committed before it stays
    committed, and resuming finishes the campaign.

    Parameters
    ----------
    processes:
        Worker processes of the campaign's pool, and the number of
        jobs kept in flight behind the one being committed (an
        integer of at least 1; a single worker runs in-process, one
        job at a time).  A run block of fewer runs than this runs as cell
        jobs.  Defaults to the CPUs available to this process.
    max_shards:
        Stop gracefully after executing this many shards (a
        non-negative integer; testing and budgeted execution); the
        campaign stays resumable.
    kill_after_shards:
        Testing hook: SIGKILL this process immediately after the
        commit that brings the shards committed by this invocation to
        at least N (a non-negative integer), simulating a hard crash
        mid-campaign (the jobs then in flight are lost).
    git_revision:
        Override the revision key (defaults to ``git rev-parse HEAD``).
    progress:
        Optional line sink for human-readable progress.  A sink that
        raises ``BrokenPipeError`` gets no further lines; the campaign
        still runs to the end and commits.
    """
    if processes is not None:
        check_count("processes", processes, "worker count")
        check_positive("processes", processes)
    for name, count in (
        ("max_shards", max_shards), ("kill_after_shards", kill_after_shards)
    ):
        if count is not None:
            check_count(name, count, "shard count")
            check_non_negative(name, count)
    revision = git_revision or current_git_revision()
    shards = spec.shards()
    spec_hash = spec.spec_hash()
    sink = progress

    def emit(line: str) -> None:
        nonlocal sink
        if sink is None:
            return
        try:
            sink(line)
        except BrokenPipeError:
            # The progress reader went away (``... | head``): drop the
            # remaining lines and finish the campaign.
            sink = None
    registry = current()
    workers = processes or available_cpu_count()

    executed = 0
    runs_executed = 0
    with CampaignStore(store_path) as store:
        store.register_campaign(spec, revision)
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
        pending: List[Shard] = []
        for shard in shards:
            if shard.index in done:
                continue
            if max_shards is not None and len(pending) >= max_shards:
                break
            pending.append(shard)

        pool = WorkerPool(workers if pending and workers > 1 else 0)
        # Jobs submitted and not yet committed, in shard order.
        window: Deque[Tuple[Job, PendingRun]] = deque()
        upcoming = iter(_jobs(pending, workers))

        def _fill() -> None:
            """Submit jobs until ``pool.processes`` of them queue
            behind the head of the window (none in-process, where a
            job runs only when it is waited on)."""
            while len(window) <= pool.processes:
                job = next(upcoming, None)
                if job is None:
                    return
                window.append((job, _submit_job(pool, spec, job)))

        try:
            elapsed_total = 0.0
            while True:
                # With one job per worker behind the head, a worker
                # that finishes a later job first takes the next one
                # instead of idling while the loop still waits on the
                # head, and the head's commit overlaps their compute.
                _fill()
                if not window:
                    break
                job, handle = window.popleft()
                started = time.perf_counter()
                outcomes = handle.wait()
                finished: List[ShardRows] = []
                for shard, shard_outcomes in sorted(
                    zip(job, outcomes), key=lambda pair: pair[0].index
                ):
                    result = collect_outcomes(shard_outcomes)
                    finished.append((
                        shard,
                        result.runs,
                        result.merged_metrics()
                        if spec.collect_metrics else None,
                    ))
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
        canonicalize = complete and not already_complete
        canonical_path = store_path + ".canonical.tmp"
        if canonicalize:
            store.export_canonical(
                canonical_path, mark_complete=(spec.name, spec_hash, revision)
            )
        else:
            digest = store.canonical_digest()

    if canonicalize:
        # The working store is closed: atomically put its canonical
        # rebuild in its place, then digest the file as it now stands.
        os.replace(canonical_path, store_path)
        with CampaignStore(store_path) as store:
            digest = store.canonical_digest()
        _write_summary_sidecar(store_path, spec, revision, digest)
        emit(f"campaign complete; canonical store at {store_path}")
    else:
        if complete:
            emit("campaign already complete; store untouched")
        else:
            remaining = len(shards) - len(done)
            emit(
                f"stopped with {remaining} shards remaining; resume "
                f"with the same spec to continue"
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
    )


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
