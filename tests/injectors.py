"""An execution-fault injector that holds one run in its worker.

Tests of the pool's timing paths (``close()`` escalation, ``wait``
timeouts, out-of-order shard completion) need a worker that is busy
for a known while.  ``HoldRun`` rides into the workers through the
pool's ``execution_faults`` hook like
:class:`~repro.faults.WorkerKiller`, and is a frozen dataclass so it
pickles across the process boundary.
"""

import signal
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class HoldRun:
    """Sleep ``seconds`` before the first attempt of run ``run``.

    With ``ignore_sigterm`` the worker first disarms ``SIGTERM``, so
    only ``SIGKILL`` can reap it while it holds.
    """

    run: int
    seconds: float
    ignore_sigterm: bool = False

    def before_run(self, run_index, attempt):
        if run_index != self.run or attempt != 0:
            return
        if self.ignore_sigterm:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(self.seconds)
