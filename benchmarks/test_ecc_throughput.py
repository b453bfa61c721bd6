"""ECC hot-path bench: vectorized GF(256) kernels vs the scalar oracle.

Two gates:

1. **Jammed-HELLO decode.**  A batch of HELLO-sized Reed-Solomon words
   (the per-pair hot shape: k = 3 data symbols, 3 parity symbols at the
   Table I ``mu = 1``) corrupted with random in-capability
   errors+erasures, decoded by the production codec and by the
   always-scalar oracle (:class:`repro.oracles.ScalarReedSolomonCodec`).
   Asserts bit-identical outputs and a 10x speedup of the vectorized
   codec (relaxed in smoke mode).
2. **End-to-end runner.**  ``NetworkExperiment`` at the Table I
   defaults under ``compute_backend="reference"`` vs ``"vectorized"``:
   identical ``RunResult`` values and a 2x wall-clock improvement
   (relaxed in smoke mode, which also shrinks the field).

Results land in ``--bench-json`` (see ``conftest``) for CI artifacts.

Environment knobs (on top of ``conftest``'s):

- ``REPRO_BENCH_SMOKE``  set to 1 for CI smoke mode: smaller batches
  and relaxed speedup floors, to stay robust on noisy shared runners.
"""

import os
import time

import numpy as np

from repro.core.config import JRSNDConfig
from repro.ecc.reed_solomon import ReedSolomonCodec
from repro.experiments.runner import NetworkExperiment
from repro.oracles import ScalarReedSolomonCodec

HELLO_DATA_SYMBOLS = 3   # 21 plain bits -> 3 byte symbols
HELLO_PARITY_SYMBOLS = 3  # ceil(mu * k) at the Table I mu = 1


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")


def _jammed_hello_batch(seed: int, batch: int):
    """HELLO-sized codewords under the jamming corruption model.

    A jammer destroys correlation blocks, so the receiver sees
    *erasures* (known-bad symbol positions), not silent symbol errors —
    each word gets up to ``n - k`` erased symbols, the erasure-only
    shape the batched decode path is built for.
    """
    rng = np.random.default_rng(seed)
    encoder = ScalarReedSolomonCodec(HELLO_PARITY_SYMBOLS)
    messages = rng.integers(
        0, 256, size=(batch, HELLO_DATA_SYMBOLS), dtype=np.uint8
    ).tolist()
    words = encoder.encode_batch(messages)
    n = HELLO_DATA_SYMBOLS + HELLO_PARITY_SYMBOLS
    erasure_lists = []
    for word in words:
        f = int(rng.integers(0, HELLO_PARITY_SYMBOLS + 1))
        hit = rng.choice(n, size=f, replace=False)
        for position in hit:
            word[int(position)] ^= int(rng.integers(1, 256))
        erasure_lists.append([int(p) for p in hit])
    return messages, words, erasure_lists


def _decode_time(codec_type, words, erasure_lists):
    codec = codec_type(HELLO_PARITY_SYMBOLS)
    copies = [list(word) for word in words]
    start = time.perf_counter()
    decoded = codec.decode_batch(copies, erasure_lists)
    return time.perf_counter() - start, decoded


def test_vectorized_rs_speedup_on_jammed_hellos(
    benchmark, seed, bench_record
):
    batch = 1_500 if _smoke() else 4_000
    target = 4.0 if _smoke() else 10.0
    messages, words, erasure_lists = _jammed_hello_batch(seed, batch)

    def compare():
        # Warm both codecs once (table/generator construction, lru
        # caches), then score the best of three timed passes each.
        naive, vectorized = ScalarReedSolomonCodec, ReedSolomonCodec
        _decode_time(naive, words[:64], erasure_lists[:64])
        _decode_time(vectorized, words[:64], erasure_lists[:64])
        naive_t, naive_d = min(
            (_decode_time(naive, words, erasure_lists)
             for _ in range(3)),
            key=lambda pair: pair[0],
        )
        vec_t, vec_d = min(
            (_decode_time(vectorized, words, erasure_lists)
             for _ in range(3)),
            key=lambda pair: pair[0],
        )
        return naive_t, vec_t, naive_d, vec_d

    naive_t, vec_t, naive_d, vec_d = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    speedup = naive_t / vec_t
    benchmark.extra_info["batch"] = batch
    benchmark.extra_info["speedup"] = round(speedup, 1)
    bench_record(
        "rs_jammed_hello_decode",
        batch=batch,
        naive_seconds=round(naive_t, 4),
        vectorized_seconds=round(vec_t, 4),
        speedup=round(speedup, 2),
        target=target,
    )
    print(
        f"\nB={batch} n=({HELLO_DATA_SYMBOLS}+{HELLO_PARITY_SYMBOLS}): "
        f"naive {naive_t:.3f}s, vectorized {vec_t:.3f}s "
        f"-> {speedup:.1f}x"
    )
    # Same decoded symbols — only faster.
    assert vec_d == naive_d
    assert vec_d == messages
    assert speedup >= target, (
        f"vectorized RS only {speedup:.1f}x faster than naive "
        f"(target {target:.0f}x)"
    )


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
