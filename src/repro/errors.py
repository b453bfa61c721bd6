"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with one ``except`` clause.  Subsystems
define narrower classes here rather than locally so that cross-module code
(e.g. the protocol engines catching decode failures from the ECC layer) does
not need to import deep internals.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class SpreadCodeError(ReproError):
    """Invalid spread-code construction or use."""


class SynchronizationError(ReproError):
    """The sliding-window synchronizer could not lock onto a message."""


class DecodeError(ReproError):
    """A codec failed to decode a (possibly corrupted) message."""


class EccDecodeError(DecodeError):
    """Reed-Solomon (or other ECC) decoding failed: too many errors."""


class AuthenticationError(ReproError):
    """A signature or MAC verification failed."""


class ProtocolError(ReproError):
    """A protocol state machine received an invalid or unexpected message."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class RevokedCodeError(ReproError):
    """An operation was attempted with a locally revoked spread code."""


class WorkerPoolError(ReproError):
    """The worker-pool machinery itself failed beyond repair.

    The execution plane classifies failures into three families:

    - **transient** — a worker died but supervision absorbed it: the
      worker was respawned and the affected runs were retried
      (bit-identically, runs are seed-pure).  Transient failures never
      raise; they are visible only as ``pool.workers_respawned`` /
      ``pool.runs_retried`` counters.
    - **quarantine** — a run exceeded its retry budget (it keeps
      killing its worker).  The run is reported as a tagged failure
      outcome carrying :data:`QUARANTINE_MARKER` and surfaces
      through :class:`ParallelExecutionError`; the pool survives.
    - **infrastructure** — supervision itself failed (respawn budget
      exhausted, spawn failures, a closed/broken pool).  Only this
      family raises ``WorkerPoolError``; the campaign executor reacts
      by degrading to a simpler engine rather than aborting.
    """


#: Prefix tagging a failure traceback as a *quarantined* run: one that
#: repeatedly killed its worker and was benched after
#: exhausting its retry budget, rather than a run that raised.
QUARANTINE_MARKER = "[quarantined]"


def quarantine_failure(run_index, attempts, reason):
    """The tagged failure text for a quarantined run."""
    return (
        f"{QUARANTINE_MARKER} run {run_index} killed its worker on "
        f"all {attempts} attempts; last failure: {reason}"
    )


def is_quarantined_failure(traceback_text):
    """True if a failure traceback marks a quarantined run."""
    return str(traceback_text).startswith(QUARANTINE_MARKER)


#: The concrete exception families a Monte Carlo worker run may raise
#: and have reported back as data (index + traceback) instead of
#: aborting the whole ``multiprocessing`` map: the package's own error
#: taxonomy, numpy's numeric/shape failures (``ValueError``,
#: ``ArithmeticError``), container/attribute programming errors
#: surfaced by a bad configuration, and OS-level failures.  Anything
#: outside these families — most notably ``KeyboardInterrupt`` and
#: ``SystemExit`` — propagates immediately.
WORKER_TRAPPED_ERRORS = (
    ReproError,
    ValueError,
    TypeError,
    ArithmeticError,
    LookupError,
    AttributeError,
    RuntimeError,
    OSError,
    MemoryError,
)


class ParallelExecutionError(ReproError):
    """One or more Monte Carlo worker runs failed.

    Unlike a bare ``multiprocessing.Pool`` abort, the completed runs are
    not lost: they are attached as ``completed`` (an
    ``ExperimentResult``) alongside ``failures`` — a tuple of
    ``(run_index, traceback_text)`` pairs, one per failed run.
    """

    def __init__(self, message, failures=(), completed=None):
        super().__init__(message)
        self.failures = tuple(failures)
        self.completed = completed

    def __reduce__(self):
        # The default Exception.__reduce__ only preserves ``args``, so
        # an instance crossing a process boundary (e.g. raised inside a
        # multiprocessing pool and re-raised in the parent) would arrive
        # with ``failures``/``completed`` reset — losing the worker
        # tracebacks exactly when they matter most.
        return (
            type(self),
            (self.args[0] if self.args else "", self.failures,
             self.completed),
        )
