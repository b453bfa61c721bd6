"""The persistent worker pool: the one execution engine.

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
  every ``("run", experiments, indices)`` chunk message carries
  its job's experiments: one, or a tuple of them.  A chunk runs each
  run index through every experiment in order before the next index
  (:func:`_run_chunk`), and the job resolves with one outcome list per
  experiment.  The campaign executor submits every point of one block
  of run indices as one such *block job* (the ``nu`` points of one
  cell as a *cell job* when the block has fewer runs than the pool
  has workers), with the points that share a run's field snapshot
  (neighbor pairs, code assignment) adjacent, and within them the
  ``nu`` points of one (q, link model) cell.  Workers keep no
  per-experiment state: each holds the one snapshot it last used
  (:class:`_HeldSnapshot`), and that snapshot holds the cell it last
  served: everything a run computes before M-NDP reads ``nu``
  (compromise, D-NDP outcome, latency sample) and, with one M-NDP
  round, the hop-ball closure.  So a run's snapshot is built once per
  job, and the next ``nu`` point of a cell skips the sweep and resumes
  the closure past the hop level it reached.
- **The caller's thread drives dispatch, and jobs overlap.**  The pool
  starts no thread.  It keeps the open jobs in a FIFO, each with its
  own chunk queue and outcomes, and dispatches in *steps*: a step
  collects the replies the busy workers have ready, then hands every
  idle worker the next chunk of the oldest job that still has one.
  :meth:`WorkerPool.submit` queues the job's chunks and takes one
  step without blocking, so a new job starts on an idle worker at
  once, and returns a :class:`PendingRun`.  :meth:`PendingRun.wait`
  takes steps, blocking on the busy workers' pipes, until its own job
  has nothing pending and nothing running, whatever the jobs around
  it do; the replies of those jobs are collected on the way.  A lone
  job (one :meth:`~WorkerPool.run` call) spreads over every worker;
  the campaign executor keeps one job per worker in flight, so even
  one-run shards keep every worker busy.  A worker that finishes
  while the caller does something else (the executor's store commit)
  waits for the caller's next ``submit`` or ``wait`` to get its next
  chunk.

**In-process mode.**  ``WorkerPool(processes=0)`` spawns no child:
:meth:`~WorkerPool.submit` only queues the job, and
:meth:`PendingRun.wait` runs the job's chunks in the caller's thread,
through the same per-chunk loop (:func:`_run_chunk`) a worker process
uses — same trapping of :data:`~repro.errors.WORKER_TRAPPED_ERRORS`
into tagged outcomes.  It is the serial engine.

**Failure.**  A run that raises one of the trapped errors comes back
as a tagged failure outcome and surfaces through
:class:`~repro.errors.ParallelExecutionError`; the pool stays usable.
A worker found dead — EOF on its pipe, a ``fatal`` report, or a chunk
that cannot be sent to it — is not replaced: the step raises
:class:`~repro.errors.WorkerPoolError` naming the run indices of the
chunk the worker held.  That, or anything else escaping a step (a
``KeyboardInterrupt`` mid-receive), breaks the pool and fails every
open job, so no later ``wait`` blocks on a chunk nobody holds.
Recovery is the caller's: runs are seed-pure, so the campaign
executor's committed shards stay committed and ``campaign resume``
re-runs the lost ones to the same bytes.

Determinism is untouched: a run's randomness depends only on
``(seed, run_index)`` and every mode executes ``run_once`` through the
same loop, so in-process, one-shot and persistent pools produce
bit-identical :class:`~repro.experiments.runner.RunResult` streams
(pinned by ``tests/experiments/test_pool.py``).

Pool activity is observable through the ``pool.*`` counters in
:mod:`repro.obs.names`: workers spawned and force-killed, and tasks
dispatched.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

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
)
from repro.experiments.runner import (
    ExperimentResult,
    FieldSnapshot,
    NetworkExperiment,
    RunResult,
)
from repro.obs import current
from repro.obs import names as _names
from repro.utils.validation import (
    check_count,
    check_non_negative,
    check_positive,
)

__all__ = [
    "PendingRun",
    "WorkerPool",
    "adaptive_chunksize",
    "available_cpu_count",
    "collect_outcomes",
]

#: Hard cap on run indices shipped per task message, bounding both the
#: request payload and the ``RunResult`` batch coming back.
MAX_CHUNKSIZE = 32

#: Seconds each step of :meth:`WorkerPool.close`'s join → ``terminate()``
#: → ``kill()`` escalation waits for a worker process.
CLOSE_GRACE = 10.0

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


class _HeldSnapshot:
    """The one field snapshot a process holds: the last one it used.

    A job runs each run index through every point of the job before the
    next index (:func:`_run_chunk`), and the campaign executor orders a
    job's points so that those sharing a snapshot, and within them
    those sharing a cell, are adjacent (``nu`` last).  So the snapshot a
    point needs is the one the previous point used, or one never needed
    again; holding just that one serves every reuse.  It is kept
    between chunks too, for the cell jobs of one small block, which
    run the same run indices one after another.  The snapshot also
    holds the :class:`~repro.experiments.runner.RunCell` it last
    served, and records no metrics, so a reused snapshot and a fresh
    one leave the same per-run counters.
    """

    def __init__(self) -> None:
        self._snapshot: Optional[FieldSnapshot] = None

    def get(
        self, experiment: NetworkExperiment, run_index: int
    ) -> FieldSnapshot:
        """Run ``run_index``'s snapshot: the held one if its key is
        the run's, else a new one, built after the held one is
        dropped."""
        key = experiment.snapshot_key(run_index)
        if self._snapshot is None or self._snapshot.key != key:
            self._snapshot = None
            self._snapshot = FieldSnapshot(key)
        return self._snapshot


def _run_chunk(
    experiments: Tuple[NetworkExperiment, ...],
    indices: List[int],
    held: _HeldSnapshot,
) -> List[List[_Outcome]]:
    """Run ``indices`` through each of ``experiments``.

    Returns one outcome list per experiment, in ``experiments`` order.
    Each run index goes through every experiment before the next index
    starts, on the snapshot ``held`` serves, so the points of one job
    that share a run's snapshot, or its cell, meet it one after
    another.

    Worker processes and the in-process mode both execute through this
    loop.  A failure in one of the
    :data:`~repro.errors.WORKER_TRAPPED_ERRORS` families comes back as
    tagged outcome data instead of aborting the chunk; anything else
    (``KeyboardInterrupt``, ``SystemExit``, foreign ``BaseException``
    types) propagates — it signals cancellation or a component misusing
    the error taxonomy, not a failed run.
    """
    outcomes: List[List[_Outcome]] = [[] for _ in experiments]
    for index in indices:
        for experiment, into in zip(experiments, outcomes):
            try:
                into.append((
                    index,
                    experiment.run_once(index, held.get(experiment, index)),
                    None,
                ))
            except WORKER_TRAPPED_ERRORS:
                into.append((index, None, traceback.format_exc()))
    return outcomes


def _worker_main(conn: Any, close_conns: List[Any]) -> None:
    """Worker process loop: run the chunks the pool sends.

    Each ``("run", experiments, indices)`` message executes
    through :func:`_run_chunk` on this process's held snapshot;
    per-run failures travel back as tagged outcome data, anything else
    is a pool fault reported as ``fatal``.

    ``close_conns`` carries every *parent-side* pipe end this process
    inherited (its own and those of already-running siblings) and is
    closed immediately.  If those ends stayed open, a worker whose
    parent was SIGKILLed would never observe EOF (a sibling — or the
    worker itself — still holds a live write end) and the orphaned
    pool would survive the crash forever.  Closing them makes "parent
    died" indistinguishable from a clean shutdown: ``recv`` raises
    ``EOFError`` and the worker exits.
    """
    for foreign in close_conns:
        foreign.close()
    held = _HeldSnapshot()
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
            _, experiments, indices = message
            conn.send(("done", _run_chunk(experiments, indices, held)))
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
    """One submitted job: its dispatch state and the caller's handle.

    Every chunk runs its run indices through each of the job's
    experiments, and the job's outcomes hold one list per experiment.
    ``_pending`` holds the chunks not yet handed to a worker and
    ``_running`` counts the chunks a worker holds; the pool's steps
    move them along.  The job is done once nothing is pending and
    nothing is running, or once the pool has failed it (``_error``).
    ``single`` marks a job submitted as a bare experiment, whose
    :meth:`wait` returns that one list.
    """

    def __init__(
        self,
        pool: "WorkerPool",
        experiments: Tuple[NetworkExperiment, ...],
        chunks: List[List[int]],
        single: bool,
    ) -> None:
        self._pool = pool
        self._experiments = experiments
        self._pending: Deque[List[int]] = deque(chunks)
        self._running = 0
        self._outcomes: List[List[_Outcome]] = [[] for _ in experiments]
        self._error: Optional[BaseException] = None
        self._single = single

    def done(self) -> bool:
        """True once the job has finished (successfully or not)."""
        return self._error is not None or not (
            self._pending or self._running
        )

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Drive the pool until this job is done; return its outcomes.

        Outcomes are ``(run_index, RunResult | None, traceback | None)``
        triples in completion order — callers sort by index
        (:func:`collect_outcomes` does).  A job submitted as a bare
        experiment returns its list of them; a job submitted as a tuple
        returns one such list per experiment, in the tuple's order.

        Each step of the wait runs in the caller's thread: it collects
        every ready reply (of any job) and keeps the idle workers fed,
        or, in the in-process mode, runs this job's next chunk.  A wait
        that runs out of ``timeout`` raises ``WorkerPoolError`` and
        leaves the job queued, so a later wait collects it.  A failed
        job (a dead worker, an untrapped error, a closed pool) raises
        its error, on this wait and every later one.
        """
        self._pool._drive(self, timeout)
        if self._error is not None:
            raise self._error
        return self._outcomes[0] if self._single else self._outcomes


@dataclass
class _Worker:
    """One live worker process and its parent-side pipe end."""

    process: Any
    conn: Any


class WorkerPool:
    """A pool of long-lived worker processes.

    Create one per campaign (or per sweep) and reuse it across every
    experiment::

        with WorkerPool(processes=4) as pool:
            for config in configs:
                result = pool.run(NetworkExperiment(config, seed=7),
                                  range(100))

    The pool keeps the submitted jobs in a FIFO and, at every step the
    caller's ``submit`` or ``wait`` takes, hands each idle worker the
    next index chunk of the oldest job that still has one.  A lone job
    therefore spreads over every worker in demand-driven chunks (a slow
    worker never stalls the fast ones), and jobs submitted back to back
    run side by side as soon as the earlier ones leave a worker idle.
    Each job is done on its own, when its last chunk comes back.  A
    worker death makes the pool *broken*: every open job fails with
    :class:`~repro.errors.WorkerPoolError` and further submissions are
    refused.  Per-run failures never break it.

    Parameters
    ----------
    processes:
        Worker process count; defaults to :func:`available_cpu_count`.
        ``0`` selects the in-process mode: no child process — each job
        runs in the caller's thread when its :class:`PendingRun` is
        waited on.
    """

    def __init__(self, processes: Optional[int] = None) -> None:
        if processes is None:
            processes = available_cpu_count()
        check_count("processes", processes, "worker count")
        check_non_negative("processes", processes)
        self._context = multiprocessing.get_context()
        self._workers: List[_Worker] = []
        # Open jobs, oldest first: each has a chunk pending or running.
        self._jobs: Deque[PendingRun] = deque()
        # Worker slot -> the job and chunk that worker holds.
        self._in_flight: Dict[int, Tuple[PendingRun, List[int]]] = {}
        self._closed = False
        # The failure that broke the pool, once one has.
        self._failure: Optional[BaseException] = None
        # The in-process mode's held snapshot (workers hold their own).
        self._held = _HeldSnapshot()
        for _ in range(int(processes)):
            self._workers.append(self._spawn_worker())

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
        """True once a worker death (or another failure escaping a
        step) has disabled the pool."""
        return self._failure is not None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop the workers; idempotent.

        Every worker is sent ``stop`` and its parent-side pipe end is
        closed: an idle worker exits at once, a busy one once its
        chunk is done.  Shutdown then escalates per worker — join,
        then ``terminate()``, then ``kill()``, :data:`CLOSE_GRACE`
        seconds each — so a wedged or SIGTERM-ignoring worker can not
        leak past close.  Workers that needed ``kill()`` are surfaced
        on the ``pool.workers_force_killed`` counter.  Every job still
        open fails with ``WorkerPoolError``.
        """
        if self._closed:
            return
        self._closed = True
        self._held = _HeldSnapshot()  # drops the last snapshot
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass  # worker already gone
            worker.conn.close()
        force_killed = sum(
            self._stop_process(worker.process, CLOSE_GRACE)
            for worker in self._workers
        )
        if force_killed:
            current().inc(
                _names.POOL_WORKERS_FORCE_KILLED, force_killed
            )
        self._fail_open(
            WorkerPoolError("worker pool closed before the job finished")
        )

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
        """Queue ``run_indices`` of ``work``; returns without blocking.

        ``work`` is a :class:`NetworkExperiment` or a tuple of them (the
        campaign executor submits the points of one run block, or of
        one cell, this way).  The experiments themselves are the unit of
        work: they are pickled into every chunk message, and a worker
        runs each index of its chunk through every experiment of the
        copy it receives, in order, so one worker sees all the points
        of a run.  Submitting takes one step that does not block: it
        collects the replies already in and hands the idle workers
        chunks.  The caller may submit further jobs before waiting on
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
        if self._failure is not None:
            raise WorkerPoolError(
                f"worker pool broken by an earlier failure: "
                f"{self._failure}"
            )
        if self._closed:
            raise ConfigurationError(
                "worker pool is closed; create a new pool"
            )
        chunk = (
            adaptive_chunksize(len(indices), len(self._workers))
            if self._workers else len(indices)
        )
        job = PendingRun(
            self,
            experiments,
            [
                indices[start : start + chunk]
                for start in range(0, len(indices), chunk)
            ],
            single,
        )
        self._jobs.append(job)
        if self._workers:
            self._step(0.0, job)
        return job

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

    # -- worker management ---------------------------------------------

    def _spawn_worker(self) -> _Worker:
        """Start one worker process wired for orphan-free shutdown."""
        parent_end, child_end = self._context.Pipe(duplex=True)
        close_conns = [worker.conn for worker in self._workers]
        close_conns.append(parent_end)
        process = self._context.Process(
            target=_worker_main,
            args=(child_end, close_conns),
            daemon=True,
        )
        process.start()
        child_end.close()
        current().inc(_names.POOL_WORKERS_SPAWNED)
        return _Worker(process=process, conn=parent_end)

    # -- dispatch ------------------------------------------------------

    def _drive(self, job: PendingRun, timeout: Optional[float]) -> None:
        """Take steps until ``job`` is done, for at most ``timeout``
        seconds (``None``: no bound)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not job.done():
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                raise WorkerPoolError(
                    f"pool job did not finish within {timeout} s; it "
                    f"stays queued for a later wait"
                )
            self._step(remaining, job)

    def _step(self, timeout: Optional[float], job: PendingRun) -> None:
        """One dispatch step, in the caller's thread.

        With workers: collect the replies that arrive within
        ``timeout`` seconds (``None``: block until one does; ``0``:
        only those already in), then hand each idle worker the oldest
        pending chunk.  In-process: run ``job``'s next chunk here.  A
        worker found dead raises ``WorkerPoolError`` naming the run
        indices of the chunk it held; that and anything else escaping
        the step break the pool and fail every open job.
        """
        try:
            if not self._workers:
                chunk = job._pending.popleft()
                self._settle(
                    job, _run_chunk(job._experiments, chunk, self._held)
                )
                return
            if self._in_flight:
                slots = {
                    self._workers[slot].conn: slot
                    for slot in self._in_flight
                }
                for conn in _wait_ready(list(slots), timeout):
                    self._collect(slots[conn])
            self._dispatch()
        except BaseException as error:  # jrsnd: noqa(JRS003) -- a step that fails for *any* reason leaves a chunk nobody holds: break the pool and fail every open job, then re-raise unchanged
            self._failure = error
            self._fail_open(error)
            raise

    def _collect(self, slot: int) -> None:
        """Receive the reply of the worker in ``slot``."""
        job, chunk = self._in_flight.pop(slot)
        try:
            message: Tuple[Any, ...] = self._workers[slot].conn.recv()
        except (EOFError, OSError):
            raise WorkerPoolError(
                f"pool worker {slot} died holding run indices {chunk} "
                f"(killed or crashed before replying)"
            ) from None
        if message[0] != "done":
            raise WorkerPoolError(
                f"pool worker {slot} failed holding run indices "
                f"{chunk}:\n{message[1]}"
            )
        job._running -= 1
        self._settle(job, message[1])

    def _dispatch(self) -> None:
        """Hand each idle worker the next chunk of the oldest job that
        still has one."""
        registry = current()
        for slot, worker in enumerate(self._workers):
            if slot in self._in_flight:
                continue
            job = next((job for job in self._jobs if job._pending), None)
            if job is None:
                return
            chunk = job._pending.popleft()
            try:
                worker.conn.send(("run", job._experiments, chunk))
            except (OSError, ValueError):
                raise WorkerPoolError(
                    f"pool worker {slot} is gone: could not send it "
                    f"run indices {chunk}"
                ) from None
            job._running += 1
            self._in_flight[slot] = (job, chunk)
            registry.inc(_names.POOL_TASKS_DISPATCHED)

    def _settle(
        self, job: PendingRun, outcomes: List[List[_Outcome]]
    ) -> None:
        """Add one chunk's outcomes to ``job``; retire it once done."""
        for into, chunk_outcomes in zip(job._outcomes, outcomes):
            into.extend(chunk_outcomes)
        if job.done():
            self._jobs.remove(job)

    def _fail_open(self, error: BaseException) -> None:
        """Fail every open job with ``error``."""
        for job in self._jobs:
            job._error = error
        self._jobs.clear()
        self._in_flight.clear()
