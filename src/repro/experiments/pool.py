"""The supervised, persistent worker pool: the one execution engine.

Every Monte Carlo run outside a bare ``NetworkExperiment.run`` goes
through :class:`WorkerPool` — :func:`~repro.experiments.parallel.run_parallel`
opens one per call unless it is handed one, and the campaign executor
keeps one for a whole grid.  A campaign is hundreds of *small* shards,
and with the chipless PHY backend the run bodies are so cheap that a
fork per shard would dominate the wall clock, so the pool amortizes it:

- **Processes are spawned once** and reused for every shard.  Sizing
  respects the scheduler's CPU affinity mask
  (:func:`available_cpu_count`), not the raw machine core count.  The
  per-process artifact cache (codecs, correlation matrices, waveforms,
  :mod:`repro.utils.artifact_cache`) is the warm state, and it lives
  as long as the worker does.
- **The experiment is the unit of work.**  A snapshot is a pure
  function of ``(config, seed, run index)``, and a
  :class:`~repro.experiments.runner.NetworkExperiment` is a small
  value (about 1 KB pickled) that costs microseconds to build, so
  every ``("run", experiment, index_attempts)`` chunk message carries
  its own experiment.  Workers keep no per-experiment state.
- **Submission is asynchronous.**  :meth:`WorkerPool.submit` returns a
  :class:`PendingRun` immediately while a dispatcher thread feeds the
  workers demand-driven chunks; the campaign executor uses this to
  overlap shard N's SQLite commit with shard N+1's execution.

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
  so a retried run is bit-identical to an undisturbed one;
- a run that keeps killing its worker past ``max_run_retries`` is
  **quarantined**: it comes back as a tagged failure outcome carrying
  :data:`~repro.errors.QUARANTINE_MARKER` (surfacing through
  ``ParallelExecutionError``) instead of sinking the pool;
- an optional per-chunk soft timeout (``run_timeout``) classifies a
  **hung** worker, which is killed, counted, and respawned like a
  crash;
- only *infrastructure* failures — the per-job respawn budget
  exhausted, a spawn failure, the pool closed mid-job — raise
  :class:`~repro.errors.WorkerPoolError` and break the pool.

One execution-fault injector can be attached at construction
(test-only hook): workers call its ``before_run`` hook ahead of every
run attempt, which is how the seeded ``WorkerKiller`` and ``RunHang``
injectors of :mod:`repro.faults.execution` drive the supervisor
deterministically in tests and chaos CI.

Determinism is untouched: a run's randomness depends only on
``(seed, run_index)`` and every mode executes ``run_once`` through the
same loop, so in-process, one-shot and persistent pools produce
bit-identical :class:`~repro.experiments.runner.RunResult` streams
(pinned by ``tests/experiments/test_pool.py``) — with or without
respawns in between.

Pool activity is observable through the ``pool.*`` counters in
:mod:`repro.obs.names`: workers spawned/respawned/timed-out/
force-killed, tasks dispatched, runs retried, and runs quarantined.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import queue
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    WORKER_TRAPPED_ERRORS,
    ConfigurationError,
    WorkerPoolError,
    quarantine_failure,
)
from repro.experiments.runner import NetworkExperiment, RunResult
from repro.obs import current
from repro.obs import names as _names
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "PendingRun",
    "SupervisionPolicy",
    "WorkerPool",
    "adaptive_chunksize",
    "available_cpu_count",
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
    """How the pool reacts when workers die, hang, or wedge.

    Parameters
    ----------
    max_run_retries:
        How many times one run may kill (or hang) its worker and still
        be re-dispatched.  A run failing attempt ``max_run_retries``
        (i.e. on its ``max_run_retries + 1``-th try) is quarantined as
        a tagged failure outcome.
    max_respawns:
        Per-job respawn budget.  More worker deaths than this within a
        single job is an infrastructure failure: the pool breaks with
        ``WorkerPoolError`` (the campaign executor then degrades to
        the in-process mode).
    run_timeout:
        Optional per-chunk soft timeout (seconds).  A worker holding a
        chunk longer than this is classified as hung, killed, and
        respawned; its runs are retried/quarantined exactly like a
        crash.  ``None`` (default) disables the timeout and the
        dispatcher blocks without polling.
    close_grace:
        Per-escalation-step grace (seconds) used when reaping worker
        processes: join → ``terminate()`` → ``kill()``.
    """

    max_run_retries: int = 2
    max_respawns: int = 16
    run_timeout: Optional[float] = None
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
        if self.run_timeout is not None:
            check_positive("run_timeout", self.run_timeout)
        check_positive("close_grace", self.close_grace)


def _run_chunk(
    experiment: NetworkExperiment,
    index_attempts: List[Tuple[int, int]],
    faults: Any = None,
) -> List[_Outcome]:
    """Run ``(index, attempt)`` pairs of ``experiment``.

    Worker processes and the in-process mode both execute through this
    loop.  A failure in one of the
    :data:`~repro.errors.WORKER_TRAPPED_ERRORS` families comes back as
    tagged outcome data instead of aborting the chunk; anything else
    (``KeyboardInterrupt``, ``SystemExit``, foreign ``BaseException``
    types) propagates — it signals cancellation or a component misusing
    the error taxonomy, not a failed run.  ``faults`` (when set) has its
    ``before_run(index, attempt)`` called ahead of every run.
    """
    outcomes: List[_Outcome] = []
    for index, attempt in index_attempts:
        if faults is not None:
            faults.before_run(index, attempt)
        try:
            outcomes.append((index, experiment.run_once(index), None))
        except WORKER_TRAPPED_ERRORS:
            outcomes.append((index, None, traceback.format_exc()))
    return outcomes


def _worker_main(
    conn: Any, close_conns: List[Any], faults: Any = None
) -> None:
    """Worker process loop: run the chunks the dispatcher sends.

    Each ``("run", experiment, index_attempts)`` message executes
    through :func:`_run_chunk`; per-run failures travel back as tagged
    outcome data, anything else is a pool fault reported as ``fatal``.

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
    the seeded injectors use it to kill or hang this process at
    deterministic points.
    """
    for foreign in close_conns:
        foreign.close()
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
            _, experiment, index_attempts = message
            conn.send(
                ("done", _run_chunk(experiment, index_attempts, faults))
            )
    except BaseException:  # jrsnd: noqa(JRS003) -- worker crash containment: every failure must reach the parent as a 'fatal' report before this process exits
        try:
            conn.send(("fatal", traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


class PendingRun:
    """Handle for one submitted job; resolved by the dispatcher, or by
    the first :meth:`wait` for an in-process job (``deferred``)."""

    def __init__(
        self, deferred: Optional[Callable[[], List[_Outcome]]] = None
    ) -> None:
        self._event = threading.Event()
        self._outcomes: Optional[List[_Outcome]] = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        self._deferred = deferred

    def done(self) -> bool:
        """True once the job has finished (successfully or not)."""
        return self._event.is_set()

    @property
    def cancelled(self) -> bool:
        """True once the job has been cancelled by a timed-out wait."""
        return self._cancelled

    def cancel(self) -> None:
        """Withdraw the job: the dispatcher skips it if not yet started.

        A job already executing runs to completion (its results are
        simply discarded with this handle); a queued job is resolved
        with ``WorkerPoolError`` instead of occupying the pool.  This
        is what :meth:`wait` does on timeout, closing the old
        outstanding-slot leak where a timed-out job stayed registered
        with the dispatcher and could race the caller's next job.
        """
        self._cancelled = True

    def wait(self, timeout: Optional[float] = None) -> List[_Outcome]:
        """Block until the job resolves; return its tagged outcomes.

        Outcomes are ``(run_index, RunResult | None, traceback | None)``
        triples in completion order — callers sort by index
        (:func:`~repro.experiments.parallel.collect_outcomes` does).

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
        return self._outcomes

    def _finish(self, outcomes: List[_Outcome]) -> None:
        self._outcomes = outcomes
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


@dataclass
class _Job:
    experiment: NetworkExperiment
    indices: List[int]
    handle: PendingRun


@dataclass
class _Worker:
    """One live worker process and its parent-side pipe end."""

    slot: int
    process: Any
    conn: Any


class WorkerPool:
    """A supervised pool of long-lived worker processes.

    Create one per campaign (or once per caller of ``run_parallel``)
    and reuse it across every shard::

        with WorkerPool(processes=4) as pool:
            for shard in shards:
                result = run_parallel(..., pool=pool)

    Jobs execute one at a time in submission order on a dispatcher
    thread that hands idle workers demand-driven index chunks, so a
    slow worker never stalls the fast ones.  Worker deaths and hangs
    are absorbed by the :class:`SupervisionPolicy` (respawn + retry +
    quarantine); the pool only becomes *broken* — refusing further
    submissions — on an infrastructure failure such as an exhausted
    respawn budget.  Per-run failures never break it.

    Parameters
    ----------
    processes:
        Worker process count; defaults to :func:`available_cpu_count`.
        ``0`` selects the in-process mode: no child process and no
        dispatcher thread — each job runs in the caller's thread when
        its :class:`PendingRun` is first waited on, so jobs still
        execute in submission order.
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
        for slot in range(int(processes)):
            self._workers.append(self._spawn_worker(slot))
        self._job_respawns = 0
        self._jobs: "queue.Queue[Optional[_Job]]" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self._broken = False
        self._dispatcher: Optional[threading.Thread] = None
        if self._workers:
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

        An in-flight job is given ``close_grace`` seconds to finish;
        after that shutdown escalates per worker — join, then
        ``terminate()``, then ``kill()`` — so a wedged or
        SIGTERM-ignoring worker can not leak past close.  Workers that
        needed ``kill()`` are surfaced on the
        ``pool.workers_force_killed`` counter.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._dispatcher is None:
            return
        grace = self._policy.close_grace
        self._jobs.put(None)
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
    def _stop_process(
        process: Any, grace: float, suspect: bool = False
    ) -> bool:
        """Reap ``process``: join → terminate → kill escalation.

        Returns True if SIGKILL was required.  ``suspect`` skips the
        polite join — used for workers already classified as hung.
        """
        if not suspect:
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
        self, experiment: NetworkExperiment, run_indices: Sequence[int]
    ) -> PendingRun:
        """Queue ``run_indices`` of ``experiment``; returns immediately.

        The experiment itself is the unit of work: it is pickled into
        every chunk message, and a worker runs ``run_once`` on the copy
        it receives.  The caller may submit the next job before waiting
        on this one — the campaign executor relies on that to commit
        shard N while the workers are already draining shard N+1.  In
        the in-process mode the job only runs when its handle is waited
        on, so shard N+1 executes after shard N's commit.
        """
        if not isinstance(experiment, NetworkExperiment):
            raise ConfigurationError(
                f"pool work must be a NetworkExperiment, got "
                f"{type(experiment).__name__}"
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
                return PendingRun(deferred=functools.partial(
                    _run_chunk,
                    experiment,
                    [(index, 0) for index in indices],
                ))
            handle = PendingRun()
            self._jobs.put(_Job(experiment, indices, handle))
        return handle

    def run(
        self, experiment: NetworkExperiment, run_indices: Sequence[int]
    ) -> List[_Outcome]:
        """Synchronous convenience: ``submit(...).wait()``."""
        return self.submit(experiment, run_indices).wait()

    # -- worker management ---------------------------------------------

    def _spawn_worker(self, slot: int) -> _Worker:
        """Start one worker process wired for orphan-free shutdown."""
        parent_end, child_end = self._context.Pipe(duplex=True)
        close_conns = [
            worker.conn for worker in getattr(self, "_workers", [])
        ]
        close_conns.append(parent_end)
        process = self._context.Process(
            target=_worker_main,
            args=(child_end, close_conns, self._faults),
            daemon=True,
        )
        process.start()
        child_end.close()
        current().inc(_names.POOL_WORKERS_SPAWNED)
        return _Worker(slot=slot, process=process, conn=parent_end)

    def _respawn(self, slot: int, reason: str, hung: bool = False) -> None:
        """Replace the worker in ``slot`` after a death or hang.

        Raises ``WorkerPoolError`` (infrastructure) when the pool is
        closing, the per-job respawn budget is exhausted, or the
        replacement itself cannot be spawned.
        """
        with self._lock:
            closing = self._closed
        worker = self._workers[slot]
        self._stop_process(worker.process, self._policy.close_grace,
                           suspect=hung)
        try:
            worker.conn.close()
        except OSError:
            pass
        if closing:
            raise WorkerPoolError(
                "worker pool closed while a job was in flight"
            )
        self._job_respawns += 1
        if self._job_respawns > self._policy.max_respawns:
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
    def _deliver(
        worker: _Worker,
        experiment: NetworkExperiment,
        chunk: List[int],
        attempts: Dict[int, int],
    ) -> bool:
        """Send a run chunk; False if the pipe is dead — the caller
        respawns and the chunk stays queued."""
        try:
            worker.conn.send(
                ("run", experiment,
                 [(index, attempts[index]) for index in chunk])
            )
        except (OSError, ValueError):
            return False
        return True

    # -- dispatcher ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            if job.handle.cancelled:
                job.handle._fail(
                    WorkerPoolError(
                        "pool job was cancelled by a timed-out wait "
                        "before it started"
                    )
                )
                continue
            try:
                outcomes = self._execute(job)
            except BaseException as error:  # jrsnd: noqa(JRS003) -- dispatcher thread boundary: any failure must resolve the pending handle, not die silently in a daemon thread
                with self._lock:
                    self._broken = True
                job.handle._fail(error)
                self._fail_pending(error)
                return
            job.handle._finish(outcomes)

    def _execute(self, job: _Job) -> List[_Outcome]:
        registry = current()
        policy = self._policy
        self._job_respawns = 0
        chunk = adaptive_chunksize(len(job.indices), len(self._workers))
        attempts: Dict[int, int] = {
            int(index): 0 for index in job.indices
        }
        pending: Deque[List[int]] = deque(
            job.indices[start : start + chunk]
            for start in range(0, len(job.indices), chunk)
        )
        in_flight: Dict[int, Tuple[List[int], float]] = {}
        outcomes: List[_Outcome] = []
        consecutive_deaths = 0
        while pending or in_flight:
            # -- dispatch to idle workers ------------------------------
            for slot in range(len(self._workers)):
                if not pending:
                    break
                if slot in in_flight:
                    continue
                worker = self._workers[slot]
                chunk_indices = pending[0]
                if self._deliver(
                    worker, job.experiment, chunk_indices, attempts
                ):
                    pending.popleft()
                    in_flight[slot] = (
                        chunk_indices, time.monotonic()
                    )
                    registry.inc(_names.POOL_TASKS_DISPATCHED)
                else:
                    # Dead before the chunk was even dispatched: the
                    # chunk carries no blame (stays queued as-is); the
                    # respawn budget still bounds this.
                    consecutive_deaths += 1
                    self._respawn(
                        slot, "worker gone before dispatch"
                    )
            if not in_flight:
                continue
            # -- wait for replies (bounded by the soft timeout) --------
            conn_to_slot = {
                self._workers[slot].conn: slot for slot in in_flight
            }
            timeout: Optional[float] = None
            if policy.run_timeout is not None:
                now = time.monotonic()
                deadline = min(
                    started + policy.run_timeout
                    for _, started in in_flight.values()
                )
                timeout = max(0.001, deadline - now)
            ready = _wait_ready(list(conn_to_slot), timeout)
            if not ready:
                # Soft timeout expired: classify hung workers, kill
                # and respawn them, retry/quarantine their runs.
                assert policy.run_timeout is not None
                now = time.monotonic()
                for slot in list(in_flight):
                    chunk_indices, started = in_flight[slot]
                    if now - started < policy.run_timeout:
                        continue
                    registry.inc(_names.POOL_WORKERS_TIMED_OUT)
                    consecutive_deaths += 1
                    del in_flight[slot]
                    reason = (
                        f"chunk exceeded the {policy.run_timeout} s "
                        f"soft timeout (hung worker killed)"
                    )
                    self._respawn(slot, reason, hung=True)
                    self._absorb_failure(
                        chunk_indices, attempts, pending, outcomes,
                        reason, registry,
                    )
                time.sleep(retry_delay(consecutive_deaths))
                continue
            for conn in ready:
                slot = conn_to_slot[conn]
                if slot not in in_flight:
                    continue  # already handled this sweep
                try:
                    message: Optional[Tuple[Any, ...]] = conn.recv()
                except (EOFError, OSError):
                    message = None
                if message is not None and message[0] == "done":
                    in_flight.pop(slot)
                    outcomes.extend(message[1])
                    consecutive_deaths = 0
                    continue
                # EOF (killed / crashed) or a 'fatal' report: either
                # way this worker is done for — respawn it and put the
                # blame on the runs it was holding.
                chunk_indices, _ = in_flight.pop(slot)
                reason = (
                    "worker died mid-chunk (killed or crashed "
                    "before replying)"
                    if message is None
                    else f"worker fault:\n{message[1]}"
                )
                consecutive_deaths += 1
                self._respawn(slot, reason)
                self._absorb_failure(
                    chunk_indices, attempts, pending, outcomes,
                    reason, registry,
                )
                time.sleep(retry_delay(consecutive_deaths))
        return outcomes

    def _absorb_failure(
        self,
        chunk_indices: List[int],
        attempts: Dict[int, int],
        pending: Deque[List[int]],
        outcomes: List[_Outcome],
        reason: str,
        registry: Any,
    ) -> None:
        """Retry or quarantine every run of a failed chunk.

        Retried runs go back as *singleton* chunks: a run sharing a
        chunk with a poison run must not inherit its blame, and after
        one isolation round the killer is unambiguous.
        """
        policy = self._policy
        for index in chunk_indices:
            attempts[index] += 1
            if attempts[index] > policy.max_run_retries:
                outcomes.append((
                    index,
                    None,
                    quarantine_failure(index, attempts[index], reason),
                ))
                registry.inc(_names.POOL_RUNS_QUARANTINED)
            else:
                pending.append([index])
                registry.inc(_names.POOL_RUNS_RETRIED)

    def _fail_pending(self, error: BaseException) -> None:
        """Resolve every queued-but-unstarted handle after a break."""
        while True:
            try:
                job = self._jobs.get_nowait()
            except queue.Empty:
                return
            if job is not None:
                job.handle._fail(
                    WorkerPoolError(
                        f"worker pool broken by an earlier failure: "
                        f"{error}"
                    )
                )
