"""Execution-plane fault injectors for the worker-pool supervisor.

The channel-plane injectors (:mod:`repro.faults.injectors`) made the
protocol stack deterministically testable under jamming and loss; this
module does the same for the *compute* plane.  One injector is handed
to a :class:`~repro.experiments.pool.WorkerPool` (test-only hook) and
rides into every worker process; immediately before a worker executes
run ``index`` on attempt ``attempt`` it calls
``injector.before_run(index, attempt)``, giving the injector a precise,
seeded place to kill the worker.  :class:`WorkerKiller` SIGKILLs the
worker from inside (the closest deterministic stand-in for the OOM
killer), either from an explicit ``{run_index: kills}`` map or a seeded
per-run draw; the CI chaos campaign drives it through
``--chaos-kill-*``.

Determinism contract: kills are gated on *attempt* (an injector that
kills ``k`` times lets attempt ``k`` through), and the seeded variant
draws from :func:`repro.utils.rng.derive_rng` keyed by run index alone
— so a respawned worker makes exactly the same decisions as its
predecessor, and the supervisor's retry path is reproducible bit for
bit.  Runs themselves are seed-pure, so a retried run is identical to
an uninjected one; an injector perturbs *scheduling*, never results.
The injector is a frozen dataclass, so it pickles across the process
boundary at worker spawn.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ConfigurationError
from repro.utils.rng import derive_rng

__all__ = ["WorkerKiller"]


@dataclass(frozen=True)
class WorkerKiller:
    """SIGKILL the worker from inside, before selected run attempts.

    With an explicit ``kills`` map, run ``i`` kills its worker on
    attempts ``0 .. kills[i]-1`` and executes normally from attempt
    ``kills[i]`` on.  Without one, each run index draws once from a
    seeded stream: with probability ``rate`` it kills its first
    ``max_kills`` attempts.  Keeping ``max_kills`` at or below the
    pool's ``max_run_retries`` therefore guarantees every run
    eventually succeeds — the configuration the chaos CI job uses to
    assert that zero quarantined runs leak into results.
    """

    kills: Optional[Mapping[int, int]] = None
    seed: int = 0
    rate: float = 0.0
    max_kills: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"WorkerKiller rate must be in [0, 1], got {self.rate}"
            )
        if self.max_kills < 0:
            raise ConfigurationError(
                f"WorkerKiller max_kills must be >= 0, got {self.max_kills}"
            )

    def kills_for(self, run_index: int) -> int:
        """How many attempts of ``run_index`` this injector will kill."""
        if self.kills is not None:
            return int(self.kills.get(run_index, 0))
        if self.rate <= 0.0 or self.max_kills == 0:
            return 0
        rng = derive_rng(self.seed, f"worker-killer.{run_index}")
        return self.max_kills if float(rng.random()) < self.rate else 0

    def before_run(self, run_index: int, attempt: int) -> None:
        if attempt < self.kills_for(run_index):
            # Suicide by SIGKILL: no cleanup, no exit handlers — the
            # parent sees exactly what an OOM kill looks like.
            os.kill(os.getpid(), signal.SIGKILL)
