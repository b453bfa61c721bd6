"""Fault-hook overhead bench: no plan vs the disabled NullFaultPlan.

Every ``RadioMedium`` delivery consults the installed fault hook, and
the default is a disabled :class:`~repro.faults.NullFaultPlan` whose
``enabled`` flag short-circuits the whole injection path.  The unit
tests pin that the disabled plan is *bit-identical* to no plan at all;
this bench gates that it is also (essentially) *free* — the point is
catching a hot-loop regression (e.g. consulting injectors on the
disabled path), not micro-timing.

Environment knobs (on top of ``conftest``'s):

- ``REPRO_BENCH_SMOKE``  set to 1 for CI smoke mode: fewer rounds
  and paired repeats, and a relaxed overhead ceiling for noisy shared
  runners.
"""

import os
import statistics
import time

from repro.core.config import JRSNDConfig
from repro.experiments.reporting import format_series_table
from repro.experiments.scenarios import build_event_network
from repro.faults import NullFaultPlan

CONFIG = JRSNDConfig(
    n_nodes=8,
    codes_per_node=3,
    share_count=3,
    n_compromised=0,
    field_width=500.0,
    field_height=500.0,
    tx_range=300.0,
    rho=1e-9,
)


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")


def _time_soak(seed: int, rounds: int, faults) -> float:
    # CPU time, not wall time: the soak is single-threaded and
    # in-process, so process time measures the hook's own cost without
    # the time the process spends waiting for a core on a busy host.
    start = time.process_time()
    for index in range(rounds):
        net = build_event_network(CONFIG, seed=seed + index, faults=faults)
        for node in net.nodes:
            node.initiate_dndp()
        net.simulator.run(until=30.0)
    return time.process_time() - start


def test_null_fault_plan_overhead(benchmark, seed):
    rounds = 2 if _smoke() else 6
    # On a saturated 2-vCPU host single paired CPU ratios spread over
    # ~0.6-1.6 (median ~0.99): the median of 5 pairs crossed the 1.05
    # ceiling in 1 of 8 runs, the median of 101 pairs stayed in
    # 0.995-1.006.
    repeats = 41 if _smoke() else 101
    ceiling = 1.25 if _smoke() else 1.05

    def measure():
        # Warm-up evens out allocator and cache effects.  Both arms run
        # back to back inside every repeat, alternating which goes
        # first, and each repeat yields one paired ratio: a slow phase
        # of the host lands on both halves of a pair rather than on
        # whichever arm was timed during it, and the median over pairs
        # ignores the repeats a burst of scheduler noise did split.
        _time_soak(seed, 1, faults=None)
        plain, nulled = [], []
        for repeat in range(repeats):
            arms = [(plain, None), (nulled, NullFaultPlan())]
            if repeat % 2:
                arms.reverse()
            for times, faults in arms:
                times.append(_time_soak(seed, rounds, faults=faults))
        return plain, nulled

    plain, nulled = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = statistics.median(n / p for p, n in zip(plain, nulled))
    print()
    print(
        format_series_table(
            [{
                "rounds": float(rounds),
                "no_plan_s": statistics.median(plain),
                "null_plan_s": statistics.median(nulled),
                "ratio": ratio,
            }],
            title="Fault-hook overhead (median paired NullFaultPlan / "
            "no plan)",
        )
    )
    assert ratio < ceiling, (
        f"disabled fault plan {ratio:.2f}x slower than no plan "
        f"(ceiling {ceiling}x)"
    )
