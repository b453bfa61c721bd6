"""Property-based equivalence of the correlation engines.

Whatever random buffer the channel produces — empty, noise-only,
carrying messages at arbitrary offsets, or jammed — the production
engine (automatic, forced-FFT and forced-matmul) must return exactly
the same SyncResult sequence as the per-position oracle, work counter
included.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dsss.channel import ChipChannel
from repro.dsss.spread_code import SpreadCode
from repro.dsss.synchronizer import SlidingWindowSynchronizer
from repro.utils.rng import derive_rng
from tests.dsss.engines import ENGINES


def _scenario(seed, n_codes, code_length, message_bits, offset_positions,
              noise, jam):
    """Build a deterministic buffer + code set from drawn parameters."""
    rng = derive_rng(seed, "sync-props")
    codes = [
        SpreadCode.random(code_length, rng, code_id=i)
        for i in range(n_codes)
    ]
    channel = ChipChannel(noise_std=noise)
    for k, slot in enumerate(offset_positions):
        bits = rng.integers(0, 2, size=message_bits, dtype=np.int8)
        channel.add_message(
            bits, codes[k % n_codes], offset=int(slot)
        )
    if jam:
        channel.add_jamming(
            codes[0], offset=0, n_bits=message_bits, rng=rng,
            amplitude=1.5,
        )
    length = max(
        (message_bits + 2) * code_length,
        max((int(s) for s in offset_positions), default=0)
        + message_bits * code_length,
    )
    return codes, channel.render(length=length, rng=rng)


class TestBackendEquivalenceProps:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_codes=st.integers(min_value=1, max_value=3),
        code_length=st.sampled_from([16, 32, 64]),
        message_bits=st.integers(min_value=2, max_value=5),
        offset_positions=st.lists(
            st.integers(min_value=0, max_value=400), max_size=3
        ),
        noise=st.sampled_from([0.0, 0.4, 0.8]),
        jam=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_scan_all_identical_across_backends(
        self, seed, n_codes, code_length, message_bits, offset_positions,
        noise, jam,
    ):
        codes, buffer = _scenario(
            seed, n_codes, code_length, message_bits, offset_positions,
            noise, jam,
        )
        # Small N makes cross-correlations large relative to tau, so
        # spurious hits and failed confirmations are frequent — exactly
        # the paths where batched accounting could drift.
        results = {}
        for backend, make in ENGINES.items():
            sync = SlidingWindowSynchronizer(
                codes,
                tau=0.3,
                message_bits=message_bits,
                confirm_blocks=2,
                engine=make(codes),
            )
            results[backend] = sync.scan_all(buffer)
        for backend in ENGINES:
            assert results[backend] == results["naive"], backend
