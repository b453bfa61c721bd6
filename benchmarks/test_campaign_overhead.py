"""Campaign-layer overhead bench: store + checkpointing vs bare sweeps.

A campaign runs the exact same pool workload as a direct sweep, plus its bookkeeping: per-shard SQLite commits, metrics
merging/serialization, and the final canonical store rebuild.  That
bookkeeping must stay a small tax on real Monte Carlo work — this
bench gates the ratio and records per-shard throughput through
``bench_record`` (written out by ``--bench-json``, see ``conftest``).

Environment knobs (on top of ``conftest``'s):

- ``REPRO_BENCH_SMOKE``  set to 1 for CI smoke mode: a relaxed ceiling
  for noisy shared runners.
"""

import os
import time

from repro.campaigns import CampaignSpec, run_campaign
from repro.experiments.pool import WorkerPool, available_cpu_count
from repro.experiments.reporting import format_series_table
from repro.experiments.runner import NetworkExperiment
from repro.obs import MetricsRegistry, installed


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")


def _bench_spec(runs_per_point: int, seed: int) -> CampaignSpec:
    return CampaignSpec(
        name="bench",
        seed=seed,
        runs_per_point=runs_per_point,
        runs_per_shard=max(1, runs_per_point // 2),
        base="tiny",
        grid={"n_compromised": [5, 10]},
    )


def _time_direct(spec: CampaignSpec) -> float:
    """The same workload a campaign executes, without the store: one
    pool per point, in-process when only one worker would run."""
    workers = min(available_cpu_count(), spec.runs_per_point)
    start = time.perf_counter()
    for point in spec.points():
        experiment = NetworkExperiment(
            spec.point_config(point),
            seed=point.seed,
            strategy=spec.point_strategy(point),
            mndp_rounds=spec.mndp_rounds,
            sample_latency=spec.sample_latency,
            link_model=spec.point_link_model(point),
            collect_metrics=spec.collect_metrics,
            compute_backend=spec.compute_backend,
            phy_backend=spec.phy_backend,
        )
        with WorkerPool(workers if workers > 1 else 0) as pool:
            pool.run(experiment, range(spec.runs_per_point))
    return time.perf_counter() - start


def _time_campaign(spec: CampaignSpec, store_path: str):
    """``(elapsed, status, shard timer stat)`` for one full campaign."""
    from repro.obs import names as _names

    registry = MetricsRegistry()
    start = time.perf_counter()
    with installed(registry):
        status = run_campaign(spec, store_path, git_revision="bench")
    elapsed = time.perf_counter() - start
    shard_timer = registry.snapshot().timers.get(
        _names.CAMPAIGNS_SHARD_SECONDS
    )
    return elapsed, status, shard_timer


def test_campaign_overhead_and_throughput(
    benchmark, runs, seed, bench_record, tmp_path
):
    # The store's cost is fixed per shard while the Monte Carlo work
    # scales with runs, so the gate needs enough runs per point for a
    # realistic amortization (real campaigns use 100).
    runs_per_point = max(2, min(runs, 8)) if _smoke() else max(runs, 24)
    ceiling = 2.5 if _smoke() else 1.5
    spec = _bench_spec(runs_per_point, seed)

    def measure():
        # Warm-up: pay one-time import/JIT/cache costs outside the
        # timed comparison, then campaign and direct runs of the same
        # workload back to back.
        warm = _bench_spec(1, seed)
        _time_direct(warm)
        campaign_t, status, shard_timer = _time_campaign(
            spec, str(tmp_path / "bench.sqlite")
        )
        direct_t = _time_direct(spec)
        return campaign_t, direct_t, status, shard_timer

    campaign_t, direct_t, status, shard_timer = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    assert status.complete
    assert shard_timer is not None and shard_timer.count > 0
    ratio = campaign_t / direct_t
    throughput = status.runs_executed / campaign_t
    per_shard = shard_timer.total_seconds / shard_timer.count
    print()
    print(format_series_table(
        [{
            "shards": float(status.shards_total),
            "runs": float(status.runs_executed),
            "campaign_s": campaign_t,
            "direct_s": direct_t,
            "ratio": ratio,
            "runs_per_s": throughput,
        }],
        title="Campaign layer overhead (store + checkpoint vs bare)",
    ))
    bench_record(
        "campaign_overhead",
        workload={
            "base": spec.base,
            "grid": {"n_compromised": [5, 10]},
            "runs_per_point": runs_per_point,
            "shards": status.shards_total,
            "runs_executed": status.runs_executed,
        },
        campaign_seconds=round(campaign_t, 4),
        direct_seconds=round(direct_t, 4),
        overhead_ratio=round(ratio, 3),
        per_shard_seconds=round(per_shard, 4),
        shard_throughput_runs_per_s=round(
            status.runs_executed / shard_timer.total_seconds, 2
        ),
        throughput_runs_per_s=round(throughput, 2),
        ceiling=ceiling,
        smoke=_smoke(),
    )
    assert ratio < ceiling, (
        f"campaign layer {ratio:.2f}x slower than the bare sweep "
        f"(ceiling {ceiling}x)"
    )
