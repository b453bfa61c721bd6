"""Acquisition hot-path bench: batched engine vs the naive oracle.

Times a full sliding-window scan at the paper's physical-layer defaults
(N = 512 chips, m = 4 codes) over a buffer whose only message sits at
the last window position, so every engine walks the entire buffer.
Records the speedup of the batched engine (FFT cross-correlation at
this N) over the per-position oracle
(:class:`repro.oracles.NaiveCorrelationEngine`) and asserts the 20x
target, plus result identity between the two.

Environment knobs (on top of ``conftest``'s):

- ``REPRO_BENCH_SMOKE``  set to 1 for CI smoke mode: a shorter buffer
  and a relaxed 5x speedup floor, to stay robust on noisy shared
  runners.
"""

import os
import time

import numpy as np

from repro.dsss.channel import ChipChannel
from repro.dsss.engine import BatchedCorrelationEngine
from repro.dsss.spread_code import SpreadCode
from repro.dsss.synchronizer import SlidingWindowSynchronizer
from repro.oracles import NaiveCorrelationEngine
from repro.utils.rng import derive_rng

CODE_LENGTH = 512
N_CODES = 4
MESSAGE_BITS = 4


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")


def _make_buffer(seed: int, positions: int):
    rng = derive_rng(seed, "engine-bench")
    codes = [
        SpreadCode.random(CODE_LENGTH, rng, code_id=i)
        for i in range(N_CODES)
    ]
    bits = rng.integers(0, 2, size=MESSAGE_BITS, dtype=np.int8)
    channel = ChipChannel(noise_std=0.1)
    # The message sits at the final window position: the scan must walk
    # (and pay for) every earlier position before locking.
    channel.add_message(bits, codes[0], offset=positions - 1)
    return codes, channel.render(rng=rng)


def _scan_time(codes, buffer, engine_type):
    sync = SlidingWindowSynchronizer(
        codes, tau=0.15, message_bits=MESSAGE_BITS,
        engine=engine_type(codes),
    )
    start = time.perf_counter()
    result = sync.scan(buffer)
    return time.perf_counter() - start, result


def test_batched_speedup_over_naive(benchmark, seed):
    positions = 4_000 if _smoke() else 20_000
    target = 5.0 if _smoke() else 20.0
    codes, buffer = _make_buffer(seed, positions)

    def compare():
        naive_t, naive_r = _scan_time(codes, buffer, NaiveCorrelationEngine)
        batched_t, batched_r = _scan_time(
            codes, buffer, BatchedCorrelationEngine
        )
        return naive_t, batched_t, naive_r, batched_r

    naive_t, batched_t, naive_r, batched_r = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    speedup = naive_t / batched_t
    benchmark.extra_info["positions"] = positions
    benchmark.extra_info["naive_seconds"] = round(naive_t, 4)
    benchmark.extra_info["batched_seconds"] = round(batched_t, 4)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    print(
        f"\nN={CODE_LENGTH} m={N_CODES} positions={positions}: "
        f"naive {naive_t:.3f}s, batched {batched_t:.3f}s "
        f"-> {speedup:.1f}x"
    )
    # Same lock, same bits, same work accounting — only faster.
    assert batched_r == naive_r
    assert batched_r is not None
    assert batched_r.position == positions - 1
    assert speedup >= target, (
        f"batched engine only {speedup:.1f}x faster than naive "
        f"(target {target:.0f}x)"
    )
