"""A network experiment whose run of one index holds or kills its worker.

Tests of the pool's timing and failure paths (``close()`` escalation,
``wait`` timeouts, out-of-order shard completion, a worker dying
mid-job) need a worker that is busy for a known while, or one that
dies at a known run.  ``HoldRun`` is a
:class:`~repro.experiments.runner.NetworkExperiment`, so it rides into
the workers inside the job like any experiment; its results are the
plain experiment's.  Submit a killing one to a multi-process pool
only: in the in-process mode it would SIGKILL the caller.
"""

import os
import signal
import time

from repro.experiments.runner import NetworkExperiment


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
