"""Test-side injectors: a held or killed pool run, a lossy medium.

Tests of the pool's timing and failure paths (``close()`` escalation,
``wait`` timeouts, out-of-order shard completion, a worker dying
mid-job) need a worker that is busy for a known while, or one that
dies at a known run.  ``HoldRun`` is a
:class:`~repro.experiments.runner.NetworkExperiment`, so it rides into
the workers inside the job like any experiment; its results are the
plain experiment's.  Submit a killing one to a multi-process pool
only: in the in-process mode it would SIGKILL the caller.

Tests of the AUTH retry need handshake messages lost on a medium that
otherwise delivers them: :class:`DropFrames` swallows deliveries of one
frame type at the receivers' callbacks.
"""

import os
import signal
import time

from repro.experiments.runner import NetworkExperiment
from repro.sim.medium import RadioMedium


class HoldRun(NetworkExperiment):
    """Before run ``hold_run``: SIGKILL the process (``kill``), or
    sleep ``seconds``.

    With ``ignore_sigterm`` the process first disarms ``SIGTERM``, so
    only ``SIGKILL`` can reap it while it holds.  The remaining
    arguments are :class:`NetworkExperiment`'s.
    """

    def __init__(
        self, config, seed, *, hold_run, seconds=0.0,
        ignore_sigterm=False, kill=False, **kwargs,
    ):
        super().__init__(config, seed, **kwargs)
        self.hold_run = hold_run
        self.seconds = seconds
        self.ignore_sigterm = ignore_sigterm
        self.kill = kill

    def run_once(self, run_index, snapshot=None):
        if run_index == self.hold_run:
            if self.kill:
                os.kill(os.getpid(), signal.SIGKILL)
            if self.ignore_sigterm:
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(self.seconds)
        return super().run_once(run_index, snapshot)


class DropFrames:
    """Swallow every delivery of a ``frame_type`` frame that completes
    before ``until`` (``None``: forever), counting them in ``dropped``.

    :meth:`install` patches :meth:`RadioMedium.listen` through
    ``monkeypatch``, so call it before ``build_event_network`` starts
    the nodes: each callback registered afterwards is wrapped.  A
    delivery runs when its transmission ends, so ``tx.end`` is the
    receiver's clock.
    """

    def __init__(self, frame_type, until=None):
        self.frame_type = frame_type
        self.until = until
        self.dropped = 0

    def install(self, monkeypatch):
        listen = RadioMedium.listen

        def lossy_listen(medium, node, code_key, callback):
            def deliver(tx):
                if self._drops(tx):
                    self.dropped += 1
                    return
                callback(tx)

            listen(medium, node, code_key, deliver)

        monkeypatch.setattr(RadioMedium, "listen", lossy_listen)
        return self

    def _drops(self, tx):
        if not isinstance(tx.frame, self.frame_type):
            return False
        return self.until is None or tx.end < self.until
