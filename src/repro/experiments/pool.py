"""The supervised, persistent worker pool: the one execution engine.

Every Monte Carlo run outside a bare ``NetworkExperiment.run`` goes
through :class:`WorkerPool`: ``WorkerPool(p).run(experiment,
run_indices)`` returns the same
:class:`~repro.experiments.runner.ExperimentResult` as
``experiment.run``, and the campaign executor keeps one pool for a
whole grid.  A campaign is hundreds of *small* shards,
and with the chipless PHY backend the run bodies are so cheap that a
fork per shard would dominate the wall clock, so the pool amortizes it:

- **Processes are spawned once** and reused for every shard.  Sizing
  respects the scheduler's CPU affinity mask
  (:func:`available_cpu_count`), not the raw machine core count.  The
  per-process artifact cache (codecs, correlation matrices, waveforms,
  :mod:`repro.utils.artifact_cache`) is the warm state, and it lives
  as long as the worker does.
- **The job is the unit of work.**  A snapshot is a pure function of
  ``(config, seed, run index)``, and a
  :class:`~repro.experiments.runner.NetworkExperiment` is a small
  value (about 1 KB pickled) that costs microseconds to build, so
  every ``("run", experiments, index_attempts, capacity)`` chunk
  message carries its job's experiments: one, or a tuple of them.  A
  chunk runs each run index through every experiment in order before
  the next index (:func:`_run_chunk`), and the job resolves with one
  outcome list per experiment.  The campaign executor submits the
  ``nu`` points of one (q, link model) cell as one such *cell job*.
  Workers keep no per-experiment state.  What they keep between
  chunks is the field snapshots (neighbor pairs, code assignment) of
  at most ``capacity`` runs, one job's run indices, and
  :data:`SNAPSHOT_MEMO_BYTES`, for the campaign shards of the other
  grid points to reuse (:class:`_SnapshotMemo`).  Each kept snapshot
  also holds the cell it last served: everything a run computes
  before M-NDP reads ``nu`` (compromise, D-NDP outcome, latency
  sample) and, with one M-NDP round, the hop-ball closure.  The next
  ``nu`` point of that (run, q, link model) cell skips the sweep and
  resumes the closure past the hop level it reached; in a cell job
  that next point is the very next run the worker does.
- **Submission is asynchronous and jobs overlap.**
  :meth:`WorkerPool.submit` returns a :class:`PendingRun` immediately.
  A dispatcher thread keeps the active jobs in a FIFO, each with its
  own chunk queue, attempt counts, outcomes and respawn count, and
  hands every idle worker the next chunk of the oldest job that still
  has one.  A handle resolves as soon as its own job has nothing
  pending and nothing in flight, whatever the jobs around it do.  The
  dispatcher blocks on the busy workers' pipes plus a wake-up pipe
  that :meth:`~WorkerPool.submit` and :meth:`~WorkerPool.close` write
  to, so a new job starts on an idle worker at once.  A lone job (one
  :meth:`~WorkerPool.run` call) spreads over every worker; the campaign
  executor keeps one job per worker in flight, so even one-run
  shards keep every worker busy.

**In-process mode.**  ``WorkerPool(processes=0)`` spawns no child and
no dispatcher thread: :meth:`~WorkerPool.submit` only records the job
and :meth:`PendingRun.wait` runs it in the caller's thread, through the
same per-chunk loop (:func:`_run_chunk`) a worker process uses — same
trapping of :data:`~repro.errors.WORKER_TRAPPED_ERRORS` into tagged
outcomes.  It is the serial engine and the campaign's fallback when
supervision gives up.  It never calls the execution-fault hook: a
``WorkerKiller`` there would SIGKILL the caller.

**Supervision.**  An overnight campaign is only as reliable as its
least reliable process, so the dispatcher does not treat a worker
death as fatal.  Under a :class:`SupervisionPolicy`:

- a dead worker (EOF mid-chunk, broken pipe, ``fatal`` report) is
  **respawned** and its in-flight runs are **retried** as singleton
  chunks after the :data:`RESPAWN_BACKOFF` delay — runs are seed-pure,
  so a retried run is bit-identical to an undisturbed one.  The death
  is charged to the job whose chunk the worker held, against that
  job's own ``max_respawns`` budget;
- a run index that keeps killing its worker past ``max_run_retries``
  is **quarantined**, in every experiment of its job: it comes back
  as a tagged failure outcome carrying
  :data:`~repro.errors.QUARANTINE_MARKER` (surfacing through
  ``ParallelExecutionError``) instead of sinking the pool;
- only *infrastructure* failures — a job's respawn budget exhausted,
  a spawn failure, the pool closed mid-job — raise
  :class:`~repro.errors.WorkerPoolError` and break the pool, failing
  every active and queued job.

One execution-fault injector can be attached at construction
(test-only hook): workers call its ``before_run`` hook ahead of every
run attempt, which is how the seeded ``WorkerKiller`` of
:mod:`repro.faults.execution` drives the supervisor deterministically
in tests and chaos CI.

Determinism is untouched: a run's randomness depends only on
``(seed, run_index)`` and every mode executes ``run_once`` through the
same loop, so in-process, one-shot and persistent pools produce
bit-identical :class:`~repro.experiments.runner.RunResult` streams
(pinned by ``tests/experiments/test_pool.py``) — with or without
respawns in between.

Pool activity is observable through the ``pool.*`` counters in
:mod:`repro.obs.names`: workers spawned/respawned/force-killed,
tasks dispatched, runs retried, and runs quarantined.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_ready
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union,
)

# numpy 2.x loads these two on first use (every run draws from
# numpy.random, and np.unique reaches numpy.ma).  Loading them before
# the workers fork spares each fresh worker the import on its first run.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from repro.errors import (
    WORKER_TRAPPED_ERRORS,
    ConfigurationError,
    ParallelExecutionError,
    WorkerPoolError,
    quarantine_failure,
)
from repro.experiments.runner import (
    ExperimentResult,
    FieldSnapshot,
    NetworkExperiment,
    RunResult,
    SnapshotKey,
)
from repro.obs import current
from repro.obs import names as _names
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "PendingRun",
    "SupervisionPolicy",
    "WorkerPool",
    "adaptive_chunksize",
    "available_cpu_count",
    "collect_outcomes",
]

#: Hard cap on run indices shipped per task message, bounding both the
#: request payload and the ``RunResult`` batch coming back.
MAX_CHUNKSIZE = 32

_Outcome = Tuple[int, Optional[RunResult], Optional[str]]


def available_cpu_count() -> int:
    """CPUs actually available to this process.

    ``multiprocessing.cpu_count()`` reports the machine, not the
    process: in a cgroup-limited container or under ``taskset`` it
    over-spawns workers that then fight for the same few cores.  Where
    the platform exposes a scheduler affinity mask
    (``os.sched_getaffinity``), its size is the honest worker budget;
    elsewhere the machine count remains the best available answer.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = getaffinity(0)
        except OSError:
            affinity = None
        if affinity:
            return len(affinity)
    return multiprocessing.cpu_count()


def adaptive_chunksize(n_tasks: int, workers: int) -> int:
    """Run indices per task message.

    ``multiprocessing``'s implicit chunksize of 1 costs one IPC round
    trip per run — pure overhead on many-run shards of cheap runs.
    Mirroring ``Pool.map``'s heuristic, aim for about four chunks per
    worker (keeping the tail balanced), capped at :data:`MAX_CHUNKSIZE`
    so a single reply can never carry an unbounded result batch.
    """
    check_positive("workers", workers)
    if n_tasks <= 0:
        return 1
    per_worker = -(-int(n_tasks) // (int(workers) * 4))
    return max(1, min(MAX_CHUNKSIZE, per_worker))


#: Seconds the dispatcher sleeps after the n-th *consecutive* worker
#: death (n = 1, 2, ...; the last entry repeats): bounded exponential
#: backoff, so a crash-looping machine is not hammered with respawn
#: storms.  The count resets on any completed chunk.
RESPAWN_BACKOFF: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.4, 0.8, 1.0)


def retry_delay(consecutive_deaths: int) -> float:
    """Backoff before the dispatch following the n-th straight death."""
    if consecutive_deaths <= 0:
        return 0.0
    return RESPAWN_BACKOFF[min(consecutive_deaths, len(RESPAWN_BACKOFF)) - 1]


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the pool reacts when workers die.

    Parameters
    ----------
    max_run_retries:
        How many times one run may kill its worker and still be
        re-dispatched.  A run failing attempt ``max_run_retries``
        (i.e. on its ``max_run_retries + 1``-th try) is quarantined as
        a tagged failure outcome.
    max_respawns:
        Per-job respawn budget.  A worker death is charged to the job
        whose chunk the worker held (or was about to receive); more
        deaths than this within a single job is an infrastructure
        failure: the pool breaks with ``WorkerPoolError`` (the campaign
        executor then degrades to the in-process mode).
    close_grace:
        Per-escalation-step grace (seconds) used when reaping worker
        processes: join → ``terminate()`` → ``kill()``.
    """

    max_run_retries: int = 2
    max_respawns: int = 16
    close_grace: float = 10.0

    def __post_init__(self) -> None:
        if self.max_run_retries < 0:
            raise ConfigurationError(
                f"max_run_retries must be >= 0, got {self.max_run_retries}"
            )
        if self.max_respawns < 0:
            raise ConfigurationError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        check_positive("close_grace", self.close_grace)


#: Bytes of field snapshots, cells included, that one process's memo
#: holds besides the snapshot in use.  A kept Table I snapshot (n=2000,
#: m=100) is about 0.5 MB, 0.09 MB of uint16 pairs and 0.4 MB of uint16
#: codes; the cell it last served adds up to about 0.65 MB while its
#: M-NDP closure is unresolved (a 0.5 MB hop ball, a 0.1 MB neighbor
#: table, per-pair distances).  The budget holds ten such snapshots, the
#: block of a ``runs_per_shard`` 10 campaign (the EXPERIMENTS.md Fig 4/5
#: recipe).  Worst case: this plus the snapshot in use.
SNAPSHOT_MEMO_BYTES = 12 << 20


class _SnapshotMemo:
    """The field snapshots one process keeps between chunks.

    Every point of a campaign shares the campaign seed, and its shards
    iterate the points inside each block of run indices
    (:meth:`~repro.campaigns.spec.CampaignSpec.shards`), so the chunks a
    worker takes one after another mostly need the same runs on the
    same topology.  Entries are keyed by
    :meth:`~repro.experiments.runner.NetworkExperiment.snapshot_key`,
    every value a snapshot is a pure function of, so a hit is exactly
    the snapshot the run would have built.  A kept snapshot also holds
    the :class:`~repro.experiments.runner.RunCell` it last served:
    points sorted by ``nu`` last (the Fig 5 axis) share their
    compromise and D-NDP outcome, and one M-NDP closure resumed from
    point to point.  Snapshots and cells record no metrics (the run
    replays what a cell counted), so a hit and a miss leave the same
    per-run counters.

    Before it serves a run the memo evicts the least recently used
    other snapshots until fewer than ``capacity`` (one job's run
    indices) are held and they total under :data:`SNAPSHOT_MEMO_BYTES`.
    That budget bounds the worst case: a process holds at most it plus
    the snapshot in use, whatever the shard size.  Reuse needs a
    shard's run block to fit in the budget; a larger block cycles
    through the memo in index order, so nearly every LRU lookup misses
    and the campaign runs at the speed of unshared snapshots.
    """

    def __init__(self) -> None:
        self._held: "OrderedDict[SnapshotKey, FieldSnapshot]" = (
            OrderedDict()
        )

    def get(
        self, experiment: NetworkExperiment, run_index: int, capacity: int
    ) -> FieldSnapshot:
        """Run ``run_index``'s snapshot, built on a miss."""
        key = experiment.snapshot_key(run_index)
        snapshot = self._held.pop(key, None)
        while self._held and (
            len(self._held) >= capacity
            or self.nbytes >= SNAPSHOT_MEMO_BYTES
        ):
            self._held.popitem(last=False)
        if snapshot is None:
            snapshot = FieldSnapshot(key, kept=True)
        self._held[key] = snapshot
        return snapshot

    @property
    def nbytes(self) -> int:
        """Bytes of the snapshots held."""
        return sum(snapshot.nbytes for snapshot in self._held.values())

    def clear(self) -> None:
        self._held.clear()


def _run_chunk(
    experiments: Tuple[NetworkExperiment, ...],
    index_attempts: List[Tuple[int, int]],
    memo: _SnapshotMemo,
    capacity: int,
    faults: Any = None,
) -> List[List[_Outcome]]:
    """Run ``(index, attempt)`` pairs through each of ``experiments``.

    Returns one outcome list per experiment, in ``experiments`` order.
    Each run index goes through every experiment before the next index
    starts, so the experiments of one cell job (the ``nu`` points of
    one (q, link model) cell) meet the run's snapshot, and the cell it
    holds, one after another whatever ``capacity`` is.

    Worker processes and the in-process mode both execute through this
    loop, each run on its snapshot from ``memo`` (which keeps at most
    ``capacity``).  A failure in one of the
    :data:`~repro.errors.WORKER_TRAPPED_ERRORS` families comes back as
    tagged outcome data instead of aborting the chunk; anything else
    (``KeyboardInterrupt``, ``SystemExit``, foreign ``BaseException``
    types) propagates — it signals cancellation or a component misusing
    the error taxonomy, not a failed run.  ``faults`` (when set) has its
    ``before_run(index, attempt)`` called ahead of every run index.
    """
    outcomes: List[List[_Outcome]] = [[] for _ in experiments]
    for index, attempt in index_attempts:
        if faults is not None:
            faults.before_run(index, attempt)
        for experiment, into in zip(experiments, outcomes):
            try:
                snapshot = memo.get(experiment, index, capacity)
                into.append(
                    (index, experiment.run_once(index, snapshot), None)
                )
            except WORKER_TRAPPED_ERRORS:
                into.append((index, None, traceback.format_exc()))
    return outcomes


def _worker_main(
    conn: Any, close_conns: List[Any], faults: Any = None
) -> None:
    """Worker process loop: run the chunks the dispatcher sends.

    Each ``("run", experiments, index_attempts, capacity)`` message
    executes through :func:`_run_chunk` on this process's snapshot
    memo; per-run failures travel back as tagged outcome data, anything
    else is a pool fault reported as ``fatal``.

    ``close_conns`` carries every *parent-side* pipe end this process
    inherited (its own and those of already-running siblings) and is
    closed immediately.  If those ends stayed open, a worker whose
    parent was SIGKILLed would never observe EOF (a sibling — or the
    worker itself — still holds a live write end) and the orphaned
    pool would survive the crash forever.  Closing them makes "parent
    died" indistinguishable from a clean shutdown: ``recv`` raises
    ``EOFError`` and the worker exits.  The same argument covers
    respawned workers: each new worker closes every older sibling's
    parent end, so its own parent end is held by the parent alone.

    ``faults`` is the execution-plane chaos hook: when set, its
    ``before_run(index, attempt)`` runs ahead of every run attempt —
    the seeded injectors use it to kill or hold this process at
    deterministic points.
    """
    for foreign in close_conns:
        foreign.close()
    memo = _SnapshotMemo()
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            tag = message[0]
            if tag == "stop":
                break
            if tag != "run":
                raise WorkerPoolError(
                    f"unknown pool message tag {tag!r}"
                )
            _, experiments, index_attempts, capacity = message
            conn.send((
                "done",
                _run_chunk(
                    experiments, index_attempts, memo, capacity, faults
                ),
            ))
    except BaseException:  # jrsnd: noqa(JRS003) -- worker crash containment: every failure must reach the parent as a 'fatal' report before this process exits
        try:
            conn.send(("fatal", traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


def collect_outcomes(outcomes: List[_Outcome]) -> ExperimentResult:
    """Aggregate tagged outcomes into a result, raising on failures.

    Outcomes are reordered deterministically by run index, so the
    result is independent of worker scheduling, and any failure raises
    :class:`~repro.errors.ParallelExecutionError` carrying every
    failure's index and traceback plus the runs that did complete.
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
            f"{len(failures)} of {len(outcomes)} runs failed "
            f"(indices {failed_indices}); first failure:\n"
            f"{failures[0][1]}",
            failures=failures,
            completed=ExperimentResult(runs=completed),
        )
    return ExperimentResult(runs=completed)


class PendingRun:
    """Handle for one submitted job; resolved by the dispatcher, or by
    the first :meth:`wait` for an in-process job (``deferred``).

    A job resolves with one outcome list per experiment; ``single``
    marks a job submitted as a bare experiment, whose :meth:`wait`
    returns that one list.
    """

    def __init__(
        self,
        deferred: Optional[Callable[[], List[List[_Outcome]]]] = None,
        single: bool = False,
    ) -> None:
        self._event = threading.Event()
        self._outcomes: Optional[List[List[_Outcome]]] = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        self._deferred = deferred
        self._single = single

    def done(self) -> bool:
        """True once the job has finished (successfully or not)."""
        return self._event.is_set()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (a timed-out
        :meth:`wait` calls it)."""
        return self._cancelled

    def cancel(self) -> None:
        """Withdraw the job: the dispatcher skips it if not yet started.

        A job with any chunk already on a worker runs to completion
        (its results are simply discarded with this handle); a job
        none of whose chunks has been dispatched is resolved
        with ``WorkerPoolError`` instead of occupying the pool.  This
        is what :meth:`wait` does on timeout, closing the old
        outstanding-slot leak where a timed-out job stayed registered
        with the dispatcher and could race the caller's next job.
        """
        self._cancelled = True

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until the job resolves; return its tagged outcomes.

        Outcomes are ``(run_index, RunResult | None, traceback | None)``
        triples in completion order — callers sort by index
        (:func:`collect_outcomes` does).  A job submitted as a bare
        experiment returns its list of them; a job submitted as a tuple
        returns one such list per experiment, in the tuple's order.

        On timeout the job is cancelled (see :meth:`cancel`) before
        ``WorkerPoolError`` is raised, so it cannot fire late into a
        dispatcher slot the caller has mentally reclaimed.  An
        in-process job runs right here, in the caller's thread, and is
        not bounded by ``timeout``; an exception it does not trap
        propagates unchanged.
        """
        deferred, self._deferred = self._deferred, None
        if deferred is not None:
            self._finish(deferred())
        if not self._event.wait(timeout):
            self.cancel()
            raise WorkerPoolError(
                f"pool job did not finish within {timeout} s; the job "
                f"was cancelled (skipped unless already running)"
            )
        if self._error is not None:
            raise self._error
        assert self._outcomes is not None
        return self._outcomes[0] if self._single else self._outcomes

    def _finish(self, outcomes: List[List[_Outcome]]) -> None:
        self._outcomes = outcomes
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


@dataclass
class _Job:
    """One submitted job and its dispatch state.

    Every chunk runs its run indices through each of ``experiments``;
    ``outcomes`` holds one list per experiment.  ``pending`` holds the
    chunks not yet handed to a worker, ``running`` counts the chunks in
    flight, and ``respawns`` the worker deaths charged to this job
    (against ``max_respawns``).  Attempts count per run index: a
    worker death blames the index, whichever experiment it was in.  The
    handle resolves once nothing is pending and nothing is running.
    """

    experiments: Tuple[NetworkExperiment, ...]
    handle: PendingRun
    pending: Deque[List[int]]
    attempts: Dict[int, int]
    outcomes: List[List[_Outcome]]
    running: int = 0
    respawns: int = 0
    started: bool = False


@dataclass
class _Worker:
    """One live worker process and its parent-side pipe end."""

    slot: int
    process: Any
    conn: Any


class WorkerPool:
    """A supervised pool of long-lived worker processes.

    Create one per campaign (or per sweep) and reuse it across every
    experiment::

        with WorkerPool(processes=4) as pool:
            for config in configs:
                result = pool.run(NetworkExperiment(config, seed=7),
                                  range(100))

    A dispatcher thread keeps the submitted jobs in a FIFO and hands
    each idle worker the next index chunk of the oldest job that still
    has one.  A lone job therefore spreads over every worker in
    demand-driven chunks (a slow worker never stalls the fast ones),
    and jobs submitted back to back run side by side as soon as the
    earlier ones leave a worker idle.  Each job resolves on its own,
    when its last chunk comes back.  Worker deaths are
    absorbed by the :class:`SupervisionPolicy` (respawn + retry +
    quarantine), charged to the job whose chunk the worker held; the
    pool only becomes *broken* — failing every active and queued job
    and refusing further submissions — on an infrastructure failure
    such as an exhausted respawn budget.  Per-run failures never break
    it.

    Parameters
    ----------
    processes:
        Worker process count; defaults to :func:`available_cpu_count`.
        ``0`` selects the in-process mode: no child process and no
        dispatcher thread — each job runs in the caller's thread when
        its :class:`PendingRun` is first waited on.
    policy:
        Supervision knobs; defaults to ``SupervisionPolicy()``.
    execution_faults:
        Test-only injector — any object with a
        ``before_run(run_index, attempt)`` method, such as
        :class:`~repro.faults.execution.WorkerKiller` — delivered to
        every worker (original and respawned alike); the in-process
        mode never calls it.
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        policy: Optional[SupervisionPolicy] = None,
        execution_faults: Any = None,
    ) -> None:
        if processes is None:
            processes = available_cpu_count()
        check_non_negative("processes", processes)
        self._policy = policy or SupervisionPolicy()
        self._faults = execution_faults
        self._context = multiprocessing.get_context()
        self._workers: List[_Worker] = []
        # Jobs submitted but not yet seen by the dispatcher.
        self._submitted: Deque[_Job] = deque()
        self._lock = threading.Lock()
        self._closed = False
        self._broken = False
        self._dispatcher: Optional[threading.Thread] = None
        # The in-process mode's snapshot memo (workers keep their own).
        self._memo = _SnapshotMemo()
        if not processes:
            return
        # ``submit`` and ``close`` write to this pipe so the dispatcher,
        # blocked on the busy workers' pipes, sees them at once.
        self._wake_reader, self._wake_writer = self._context.Pipe(
            duplex=False
        )
        for slot in range(int(processes)):
            self._workers.append(self._spawn_worker(slot))
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-pool-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    # -- lifecycle -----------------------------------------------------

    @property
    def processes(self) -> int:
        """Worker process count (0 in the in-process mode)."""
        return len(self._workers)

    @property
    def _processes(self) -> List[Any]:
        """The live worker ``Process`` objects (testing/debug aid)."""
        return [worker.process for worker in self._workers]

    @property
    def broken(self) -> bool:
        """True once an infrastructure failure has disabled the pool."""
        with self._lock:
            return self._broken

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop the dispatcher and workers; idempotent.

        Jobs already submitted are given ``close_grace`` seconds to
        finish; after that shutdown escalates per worker — join, then
        ``terminate()``, then ``kill()`` — so a wedged or
        SIGTERM-ignoring worker can not leak past close, and every job
        still unresolved fails with ``WorkerPoolError``.  Workers that
        needed ``kill()`` are surfaced on the
        ``pool.workers_force_killed`` counter.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._dispatcher is not None:
                self._wake()
        if self._dispatcher is None:
            self._memo.clear()
            return
        grace = self._policy.close_grace
        self._dispatcher.join(timeout=grace)
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass  # worker already gone
        force_killed = 0
        for worker in self._workers:
            if self._stop_process(worker.process, grace):
                force_killed += 1
        if force_killed:
            current().inc(
                _names.POOL_WORKERS_FORCE_KILLED, force_killed
            )
        if self._dispatcher.is_alive():
            # The workers are gone now, so a dispatcher that was stuck
            # waiting on one unwinds via EOF and exits promptly.
            self._dispatcher.join(timeout=grace)
        for worker in self._workers:
            try:
                worker.conn.close()
            except OSError:
                pass

    @staticmethod
    def _stop_process(process: Any, grace: float) -> bool:
        """Reap ``process``: join → terminate → kill escalation.

        Returns True if SIGKILL was required.
        """
        process.join(timeout=grace)
        if not process.is_alive():
            return False
        process.terminate()
        process.join(timeout=grace)
        if not process.is_alive():
            return False
        process.kill()
        process.join(timeout=grace)
        return True

    # -- submission ----------------------------------------------------

    def submit(
        self,
        work: Union[NetworkExperiment, Tuple[NetworkExperiment, ...]],
        run_indices: Sequence[int],
    ) -> PendingRun:
        """Queue ``run_indices`` of ``work``; returns immediately.

        ``work`` is a :class:`NetworkExperiment` or a tuple of them (a
        *cell job*: the campaign executor submits the ``nu`` points of
        one cell this way).  The experiments themselves are the unit of
        work: they are pickled into every chunk message, and a worker
        runs each index of its chunk through every experiment of the
        copy it receives, in order, so one worker sees all the points
        of a run.  The caller may submit further jobs before waiting on
        this one; they take any worker this job leaves idle — the
        campaign executor keeps one job per worker in flight that way.
        In the in-process mode a job only runs when its handle is
        waited on.
        """
        single = isinstance(work, NetworkExperiment)
        experiments = (work,) if single else work
        if not (
            isinstance(experiments, tuple)
            and experiments
            and all(
                isinstance(experiment, NetworkExperiment)
                for experiment in experiments
            )
        ):
            raise ConfigurationError(
                f"pool work must be a NetworkExperiment or a non-empty "
                f"tuple of them, got {type(work).__name__}"
            )
        indices = [int(index) for index in run_indices]
        if not indices:
            raise ConfigurationError("run_indices must be non-empty")
        if any(index < 0 for index in indices):
            raise ConfigurationError("run_indices must be non-negative")
        with self._lock:
            if self._broken:
                raise WorkerPoolError(
                    "worker pool is broken (respawn budget exhausted "
                    "or the dispatch protocol failed); create a new "
                    "pool"
                )
            if self._closed:
                raise ConfigurationError(
                    "worker pool is closed; create a new pool"
                )
            if self._dispatcher is None:
                return PendingRun(
                    deferred=functools.partial(
                        _run_chunk,
                        experiments,
                        [(index, 0) for index in indices],
                        self._memo,
                        len(set(indices)),
                    ),
                    single=single,
                )
            chunk = adaptive_chunksize(len(indices), len(self._workers))
            handle = PendingRun(single=single)
            self._submitted.append(_Job(
                experiments,
                handle,
                deque(
                    indices[start : start + chunk]
                    for start in range(0, len(indices), chunk)
                ),
                {index: 0 for index in indices},
                [[] for _ in experiments],
            ))
            self._wake()
        return handle

    def run(
        self, experiment: NetworkExperiment, run_indices: Sequence[int]
    ) -> ExperimentResult:
        """Run ``run_indices`` of ``experiment`` and aggregate them.

        ``collect_outcomes(submit(...).wait())``: the result holds the
        runs in index order, bit-identical to ``experiment.run`` over
        the same indices whatever the worker count, and any failed run
        raises :class:`~repro.errors.ParallelExecutionError` carrying
        the runs that completed.
        """
        if not isinstance(experiment, NetworkExperiment):
            raise ConfigurationError(
                f"pool.run takes one NetworkExperiment, got "
                f"{type(experiment).__name__}"
            )
        return collect_outcomes(self.submit(experiment, run_indices).wait())

    def _wake(self) -> None:
        """Wake the dispatcher (caller holds ``_lock``)."""
        try:
            self._wake_writer.send_bytes(b"")
        except (OSError, ValueError):
            pass  # the dispatcher has exited

    # -- worker management ---------------------------------------------

    def _spawn_worker(self, slot: int) -> _Worker:
        """Start one worker process wired for orphan-free shutdown."""
        parent_end, child_end = self._context.Pipe(duplex=True)
        close_conns = [worker.conn for worker in self._workers]
        close_conns += [self._wake_reader, self._wake_writer, parent_end]
        process = self._context.Process(
            target=_worker_main,
            args=(child_end, close_conns, self._faults),
            daemon=True,
        )
        process.start()
        child_end.close()
        current().inc(_names.POOL_WORKERS_SPAWNED)
        return _Worker(slot=slot, process=process, conn=parent_end)

    def _respawn(self, slot: int, job: _Job, reason: str) -> None:
        """Replace the worker in ``slot`` after a death, charging the
        death to ``job``.

        Raises ``WorkerPoolError`` (infrastructure) when the pool is
        closing, ``job``'s respawn budget is exhausted, or the
        replacement itself cannot be spawned.
        """
        with self._lock:
            closing = self._closed
        worker = self._workers[slot]
        self._stop_process(worker.process, self._policy.close_grace)
        try:
            worker.conn.close()
        except OSError:
            pass
        if closing:
            raise WorkerPoolError(
                "worker pool closed while a job was in flight"
            )
        job.respawns += 1
        if job.respawns > self._policy.max_respawns:
            raise WorkerPoolError(
                f"respawn budget exhausted ({self._policy.max_respawns}"
                f" worker deaths in one job); last failure: {reason}"
            )
        try:
            self._workers[slot] = self._spawn_worker(slot)
        except (OSError, ValueError) as error:
            raise WorkerPoolError(
                f"could not respawn pool worker {slot}: {error}"
            ) from error
        current().inc(_names.POOL_WORKERS_RESPAWNED)

    @staticmethod
    def _deliver(worker: _Worker, job: _Job, chunk: List[int]) -> bool:
        """Send a run chunk; False if the pipe is dead — the caller
        respawns and the chunk stays queued."""
        try:
            worker.conn.send(
                ("run", job.experiments,
                 [(index, job.attempts[index]) for index in chunk],
                 len(job.attempts))
            )
        except (OSError, ValueError):
            return False
        return True

    # -- dispatcher ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        active: Deque[_Job] = deque()
        try:
            self._dispatch(active)
        except BaseException as error:  # jrsnd: noqa(JRS003) -- dispatcher thread boundary: any failure must resolve the pending handles, not die silently in a daemon thread
            with self._lock:
                self._broken = True
                queued = list(self._submitted)
                self._submitted.clear()
            for job in active:
                job.handle._fail(error)
            for job in queued:
                job.handle._fail(
                    WorkerPoolError(
                        f"worker pool broken by an earlier failure: "
                        f"{error}"
                    )
                )
        finally:
            self._wake_reader.close()
            self._wake_writer.close()

    def _dispatch(self, active: Deque[_Job]) -> None:
        """Run every submitted job until the pool closes.

        ``active`` is the FIFO of jobs the dispatcher has taken over;
        it is the caller's so that a failure can resolve them all.
        """
        in_flight: Dict[int, Tuple[_Job, List[int]]] = {}
        consecutive_deaths = 0
        while True:
            registry = current()
            with self._lock:
                active.extend(self._submitted)
                self._submitted.clear()
                closing = self._closed
            for job in [
                job for job in active
                if job.handle.cancelled and not job.started
            ]:
                active.remove(job)
                job.handle._fail(
                    WorkerPoolError(
                        "pool job was cancelled before it started"
                    )
                )
            # -- dispatch to idle workers, oldest job first ------------
            for slot in range(len(self._workers)):
                if slot in in_flight:
                    continue
                job = next((job for job in active if job.pending), None)
                if job is None:
                    break
                chunk_indices = job.pending[0]
                if self._deliver(self._workers[slot], job, chunk_indices):
                    job.pending.popleft()
                    job.running += 1
                    job.started = True
                    in_flight[slot] = (job, chunk_indices)
                    registry.inc(_names.POOL_TASKS_DISPATCHED)
                else:
                    # Dead before the chunk was even dispatched: the
                    # chunk carries no blame (stays queued as-is); the
                    # job's respawn budget still bounds this.
                    consecutive_deaths += 1
                    self._respawn(
                        slot, job, "worker gone before dispatch"
                    )
            if not in_flight:
                if active:
                    continue  # a respawned worker takes the chunk
                if closing:
                    return
            # -- wait for replies or submissions ----------------------
            conn_to_slot = {
                self._workers[slot].conn: slot for slot in in_flight
            }
            for conn in _wait_ready([*conn_to_slot, self._wake_reader]):
                if conn is self._wake_reader:
                    while conn.poll():
                        conn.recv_bytes()
                    continue
                slot = conn_to_slot[conn]
                try:
                    message: Optional[Tuple[Any, ...]] = conn.recv()
                except (EOFError, OSError):
                    message = None
                job, chunk_indices = in_flight.pop(slot)
                job.running -= 1
                if message is not None and message[0] == "done":
                    for into, outcomes in zip(job.outcomes, message[1]):
                        into.extend(outcomes)
                    consecutive_deaths = 0
                else:
                    # EOF (killed / crashed) or a 'fatal' report:
                    # either way this worker is done for — respawn it
                    # and put the blame on the runs it was holding.
                    reason = (
                        "worker died mid-chunk (killed or crashed "
                        "before replying)"
                        if message is None
                        else f"worker fault:\n{message[1]}"
                    )
                    consecutive_deaths += 1
                    self._respawn(slot, job, reason)
                    self._absorb_failure(
                        job, chunk_indices, reason, registry
                    )
                    time.sleep(retry_delay(consecutive_deaths))
                self._settle(job, active)

    @staticmethod
    def _settle(job: _Job, active: Deque[_Job]) -> None:
        """Resolve ``job``'s handle once nothing is pending or running."""
        if job.pending or job.running:
            return
        active.remove(job)
        job.handle._finish(job.outcomes)

    def _absorb_failure(
        self,
        job: _Job,
        chunk_indices: List[int],
        reason: str,
        registry: Any,
    ) -> None:
        """Retry or quarantine every run index of a failed chunk of
        ``job``, in each of its experiments.

        Retried indices go back as *singleton* chunks: a run sharing a
        chunk with a poison run must not inherit its blame, and after
        one isolation round the killer is unambiguous.
        """
        policy = self._policy
        runs = len(job.experiments)
        for index in chunk_indices:
            job.attempts[index] += 1
            if job.attempts[index] > policy.max_run_retries:
                failure = quarantine_failure(
                    index, job.attempts[index], reason
                )
                for into in job.outcomes:
                    into.append((index, None, failure))
                registry.inc(_names.POOL_RUNS_QUARANTINED, runs)
            else:
                job.pending.append([index])
                registry.inc(_names.POOL_RUNS_RETRIED, runs)
