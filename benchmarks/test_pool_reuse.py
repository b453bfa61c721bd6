"""Persistent-pool bench: many-small-shard campaign throughput.

The campaign workload the pool exists for: hundreds of *small* shards,
where the chipless PHY has made the run bodies cheap enough that
per-shard process spin-up (fork, cold artifact caches in every worker,
teardown) would dominate wall clock.  The persistent
:class:`~repro.experiments.pool.WorkerPool` pays those costs once per
campaign and overlaps each shard's SQLite commit with the next shard's
execution.

The bench runs one many-small-shard campaign on a two-worker pool,
checks that its workers were spawned once and never replaced, and
records its shard throughput through ``bench_record`` (written out by
``--bench-json``, see ``conftest``).  The pooled store must carry the
same canonical digest as a ``processes=1`` (in-process) run of the
same campaign — an engine that changed the bytes would be a
correctness bug, not a speedup.

Environment knobs (on top of ``conftest``'s):

- ``REPRO_BENCH_SMOKE``  set to 1 for CI smoke mode: a smaller
  workload.
"""

import os
import time

from repro.campaigns import CampaignSpec, run_campaign
from repro.experiments.reporting import format_series_table
from repro.obs import MetricsRegistry, installed
from repro.obs import names as _names

#: Explicit worker count: sizing from this machine's affinity mask can
#: yield 1 worker (single-CPU CI), which would run in-process and
#: benchmark no pool at all.
WORKERS = 2


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")


def _bench_spec(runs_per_point: int, seed: int) -> CampaignSpec:
    # runs_per_shard=2 spreads every shard over both workers.
    return CampaignSpec(
        name="poolbench",
        seed=seed,
        runs_per_point=runs_per_point,
        runs_per_shard=2,
        base="tiny-chipless",
        grid={"n_compromised": [5, 10]},
    )


def _time_campaign(spec, store_path, processes=WORKERS):
    """``(elapsed, status, pool counters)`` for one full campaign."""
    registry = MetricsRegistry()
    start = time.perf_counter()
    with installed(registry):
        status = run_campaign(
            spec,
            store_path,
            processes=processes,
            git_revision="bench",
        )
    elapsed = time.perf_counter() - start
    counters = registry.snapshot().counters
    return elapsed, status, {
        name: count
        for name, count in counters.items()
        if name.startswith("pool.")
    }


def test_persistent_pool_shard_throughput(
    benchmark, seed, bench_record, tmp_path
):
    runs_per_point = 8 if _smoke() else 48
    spec = _bench_spec(runs_per_point, seed)

    def measure():
        # Warm-up outside the timed run: first-campaign import and
        # artifact costs.
        warm = _bench_spec(2, seed)
        _time_campaign(warm, str(tmp_path / "warm.sqlite"))
        return _time_campaign(spec, str(tmp_path / "persistent.sqlite"))

    pooled_t, pooled_status, pool_counters = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    _, in_process_status, _ = _time_campaign(
        spec, str(tmp_path / "in-process.sqlite"), processes=1
    )

    assert pooled_status.complete and in_process_status.complete
    # Same bytes from both rungs of the engine, or the number is
    # meaningless.
    assert (
        pooled_status.canonical_digest
        == in_process_status.canonical_digest
    )
    # The pool must actually have been exercised and stayed up: its
    # workers spawned once for the whole campaign, none replaced.
    shards = pooled_status.shards_total
    assert pool_counters[_names.POOL_WORKERS_SPAWNED] == WORKERS

    runs_per_s = pooled_status.runs_executed / pooled_t
    print()
    print(format_series_table(
        [{
            "shards": float(shards),
            "runs": float(pooled_status.runs_executed),
            "persistent_s": pooled_t,
            "runs_per_s": runs_per_s,
        }],
        title="Campaign on a persistent two-worker pool",
    ))
    bench_record(
        "pool_reuse",
        workload={
            "base": spec.base,
            "grid": {"n_compromised": [5, 10]},
            "runs_per_point": runs_per_point,
            "runs_per_shard": 2,
            "shards": shards,
            "runs_executed": pooled_status.runs_executed,
            "workers": WORKERS,
        },
        persistent_pool_seconds=round(pooled_t, 4),
        persistent_pool_runs_per_s=round(runs_per_s, 2),
        pool_counters=pool_counters,
        smoke=_smoke(),
    )

