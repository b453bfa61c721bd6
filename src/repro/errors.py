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
    """A worker died or the pool failed: resume.

    The pool does not replace a dead worker; the error names the run
    indices the worker held and breaks the pool.  Runs are seed-pure
    and a campaign shard commits in one transaction, so ``campaign
    resume`` re-runs exactly the lost shards to the same bytes.  A run
    that *raises* is not this error: it comes back as a tagged failure
    and surfaces through :class:`ParallelExecutionError`.
    """


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
