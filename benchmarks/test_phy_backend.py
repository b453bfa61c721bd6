"""PHY bench: the analytic chipless sweep vs the chip reference.

The chip-level reference is a test oracle
(:class:`repro.oracles.ChipPairPHY`), not a runtime backend.  Two gates:

1. **Paper-scale speedup.**  The full Table I 2000-node point runs end
   to end on ``phy_backend="chipless"`` (every pair decided by the
   closed-form sweep).  The chip-level reference cost for the same
   point is measured on a subsample of the point's actual pairs (same
   placement, assignment, compromise, and jamming state, rebuilt by
   :func:`repro.oracles.run_point_state`) and extrapolated to the full
   pair count — running all ~20k pairs through real waveform synthesis
   and sliding-window re-synchronization takes minutes, which is
   exactly the point.  Asserts a 10x speedup (trivially exceeded;
   relaxed further in smoke mode).

2. **Distribution identity.**  At ``phy_noise_std = 0`` the chip and
   chipless per-draw PHYs consume identical rng streams and must
   produce bit-for-bit identical pair outcomes — the gate that makes
   the speedup legitimate (same random variable, cheaper evaluation).

Results land in ``--bench-json`` (see ``conftest``) for CI artifacts;
EXPERIMENTS.md quotes a full (non-smoke) reference run.

Environment knobs (on top of ``conftest``'s):

- ``REPRO_BENCH_SMOKE``  set to 1 for CI smoke mode: a shrunk field,
  a smaller chip subsample, and a relaxed speedup floor.
"""

import os
import time

import numpy as np

from repro.adversary.jammer import JammerStrategy, JammingModel
from repro.core.config import JRSNDConfig
from repro.dsss.spread_code import CodePool
from repro.experiments.runner import NetworkExperiment
from repro.oracles import make_pair_phy, run_point_state


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")


def test_chipless_speedup_at_paper_scale(benchmark, seed, bench_record):
    if _smoke():
        config = JRSNDConfig(
            n_nodes=600, n_compromised=10, share_count=30,
            phy_backend="chipless",
        )
        subsample, target = 10, 4.0
    else:
        config = JRSNDConfig(phy_backend="chipless")
        subsample, target = 40, 10.0

    def compare():
        # Full point on the chipless sweep (best of two passes).
        def chipless_pass():
            experiment = NetworkExperiment(config, seed=seed)
            start = time.perf_counter()
            result = experiment.run(1)
            return time.perf_counter() - start, result

        chipless_t, result = min(
            (chipless_pass() for _ in range(2)),
            key=lambda pair: pair[0],
        )
        n_pairs = result.runs[0].n_pairs

        # Chip reference on a subsample of the same point's pairs.
        pairs, assignment, jamming, _ = run_point_state(config, seed)
        assert len(pairs) == n_pairs
        pool = CodePool.generate(
            assignment.pool_size, config.code_length, seed
        )
        phy = make_pair_phy("chip", config, jamming, pool=pool)
        rng = np.random.default_rng(seed)
        sample = pairs[:: max(1, len(pairs) // subsample)][:subsample]
        # Warm the waveform/synchronizer caches out of the timed region.
        phy.sample_pair(assignment.shared_codes(*sample[0]), rng)
        start = time.perf_counter()
        for a, b in sample:
            phy.sample_pair(assignment.shared_codes(a, b), rng)
        chip_sub_t = time.perf_counter() - start
        chip_t = chip_sub_t / len(sample) * n_pairs
        return chipless_t, chip_t, n_pairs, len(sample), result

    chipless_t, chip_t, n_pairs, sampled, result = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    speedup = chip_t / chipless_t
    benchmark.extra_info["n_pairs"] = n_pairs
    benchmark.extra_info["speedup"] = round(speedup, 1)
    bench_record(
        "phy_chipless_sweep_paper_point",
        n_nodes=config.n_nodes,
        n_pairs=n_pairs,
        chip_pairs_sampled=sampled,
        chipless_seconds=round(chipless_t, 4),
        chip_seconds_extrapolated=round(chip_t, 2),
        speedup=round(speedup, 1),
        target=target,
        p_dndp=round(result.discovery_probability("dndp"), 4),
    )
    print(
        f"\nn={config.n_nodes} pairs={n_pairs}: chipless "
        f"{chipless_t:.3f}s, chip ~{chip_t:.1f}s (extrapolated from "
        f"{sampled} pairs) -> {speedup:.0f}x"
    )
    assert speedup >= target, (
        f"chipless sweep only {speedup:.1f}x faster than the chip "
        f"reference (target {target:.0f}x)"
    )


def test_chip_chipless_distribution_identity(seed, bench_record):
    """The speedup gate's legitimacy: identical outcomes at sigma = 0.

    Both per-draw PHYs consume one shared rng stream contract, so with no
    noise every pair outcome (and every surviving-code set) must match
    bit for bit across a mixed bag of compromised and safe shared
    codes.
    """
    config = JRSNDConfig(phy_backend="chipless")
    n_codes = 64
    jamming = JammingModel(
        JammerStrategy.RANDOM,
        frozenset(range(n_codes // 2)),
        z=config.z_jamming_signals,
        mu=config.mu,
    )
    pool = CodePool.generate(n_codes, config.code_length, seed)
    chip_phy = make_pair_phy("chip", config, jamming, pool=pool)
    chipless_phy = make_pair_phy("chipless", config, jamming)
    pairs = 8 if _smoke() else 24
    rng_chip = np.random.default_rng(seed)
    rng_chipless = np.random.default_rng(seed)
    share_rng = np.random.default_rng(seed + 1)
    mismatches = 0
    for _ in range(pairs):
        shared = share_rng.choice(n_codes, size=4, replace=False)
        # (success, surviving codes) of each.
        chip = chip_phy.sample_pair(
            [int(code) for code in shared], rng_chip
        )
        chipless = chipless_phy.sample_pair(
            [int(code) for code in shared], rng_chipless
        )
        if chip != chipless:
            mismatches += 1
    bench_record(
        "phy_chip_chipless_identity",
        pairs=pairs,
        mismatches=mismatches,
    )
    assert mismatches == 0, (
        f"{mismatches}/{pairs} pair outcomes diverged between the chip "
        "and chipless PHYs at sigma = 0"
    )
