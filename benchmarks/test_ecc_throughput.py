"""Hot-path bench: the vectorized compute backend vs the reference.

``NetworkExperiment`` at the Table I defaults under
``compute_backend="reference"`` vs ``"vectorized"``: identical
``RunResult`` values and a 2x wall-clock improvement (relaxed in smoke
mode, which also shrinks the field).

Results land in ``--bench-json`` (see ``conftest``) for CI artifacts.

Environment knobs (on top of ``conftest``'s):

- ``REPRO_BENCH_SMOKE``  set to 1 for CI smoke mode: a smaller field
  and a relaxed speedup floor, to stay robust on noisy shared runners.
"""

import os
import time

from repro.core.config import JRSNDConfig
from repro.experiments.runner import NetworkExperiment


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")


def test_runner_speedup_over_reference(benchmark, seed, bench_record):
    if _smoke():
        config = JRSNDConfig(
            n_nodes=600, n_compromised=10, share_count=30
        )
        runs, target = 1, 1.2
    else:
        config = JRSNDConfig()
        runs, target = 2, 2.0

    def timed(backend):
        experiment = NetworkExperiment(
            config, seed=seed, compute_backend=backend
        )
        start = time.perf_counter()
        result = experiment.run(runs)
        return time.perf_counter() - start, result

    def compare():
        # Best of two passes per backend to ride out scheduler noise
        # (the identical seed makes every pass the same workload).
        ref_t, ref_result = min(
            (timed("reference") for _ in range(2)),
            key=lambda pair: pair[0],
        )
        vec_t, vec_result = min(
            (timed("vectorized") for _ in range(2)),
            key=lambda pair: pair[0],
        )
        return ref_t, vec_t, ref_result, vec_result

    ref_t, vec_t, ref_result, vec_result = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    speedup = ref_t / vec_t
    benchmark.extra_info["runs"] = runs
    benchmark.extra_info["speedup"] = round(speedup, 2)
    bench_record(
        "experiment_runner_table1",
        n_nodes=config.n_nodes,
        runs=runs,
        reference_seconds=round(ref_t, 4),
        vectorized_seconds=round(vec_t, 4),
        speedup=round(speedup, 2),
        target=target,
    )
    print(
        f"\nn={config.n_nodes} runs={runs}: reference {ref_t:.3f}s, "
        f"vectorized {vec_t:.3f}s -> {speedup:.2f}x"
    )
    # Identical snapshots — the backends share every rng draw.
    assert vec_result == ref_result
    assert speedup >= target, (
        f"vectorized runner only {speedup:.2f}x faster than reference "
        f"(target {target:.1f}x)"
    )
