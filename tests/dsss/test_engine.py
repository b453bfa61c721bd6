"""Unit and equivalence tests for the correlation engines.

The production engine — with its automatic matmul/FFT choice, and with
each path forced — must be a drop-in replacement for the per-position
oracle: same correlation values (to float tolerance), same lock
decisions, same work accounting — on clean, superposed, and jammed
channels alike.
"""

import numpy as np
import pytest

from repro.dsss.channel import ChipChannel
from repro.dsss.correlator import correlate_many
from repro.dsss.engine import BatchedCorrelationEngine
from repro.dsss.spread_code import SpreadCode
from repro.dsss.synchronizer import SlidingWindowSynchronizer
from repro.errors import SpreadCodeError
from repro.oracles import NaiveCorrelationEngine
from tests.dsss.engines import ENGINES


def _make_codes(rng, n=4, length=512):
    return [SpreadCode.random(length, rng, code_id=i) for i in range(n)]


class TestEngineConstruction:
    def test_needs_codes(self):
        with pytest.raises(SpreadCodeError):
            NaiveCorrelationEngine([])

    def test_mixed_lengths(self, rng):
        codes = [SpreadCode.random(8, rng, 0), SpreadCode.random(16, rng, 1)]
        with pytest.raises(SpreadCodeError):
            BatchedCorrelationEngine(codes)

    def test_unknown_backend(self, rng):
        # Backends are no longer chosen by name: the synchronizer takes
        # an engine instance or builds the production engine itself.
        with pytest.raises(TypeError):
            SlidingWindowSynchronizer(
                _make_codes(rng, length=16), tau=0.15, message_bits=4,
                backend="naive",
            )

    def test_backend_names_resolve(self, rng):
        codes = _make_codes(rng, length=64)
        for make in ENGINES.values():
            engine = make(codes)
            assert engine.n_codes == 4
            assert engine.chip_length == 64

    def test_naive_block_size_is_one(self, rng):
        # A naive scan that locks early must not compute whole blocks.
        assert NaiveCorrelationEngine(_make_codes(rng, length=16)).block_size == 1

    def test_fft_selection_by_length(self, rng):
        small = BatchedCorrelationEngine(_make_codes(rng, length=32))
        large = BatchedCorrelationEngine(_make_codes(rng, length=512))
        assert not small.uses_fft
        assert large.uses_fft

    def test_invalid_block_size(self, rng):
        with pytest.raises(SpreadCodeError):
            BatchedCorrelationEngine(_make_codes(rng, length=16), block_size=0)


class TestCorrelateBlock:
    @pytest.mark.parametrize("backend", ENGINES)
    def test_matches_correlate_many(self, rng, backend):
        codes = _make_codes(rng, n=3, length=64)
        buffer = rng.normal(0.0, 1.0, size=500)
        engine = ENGINES[backend](codes)
        block = engine.correlate_block(buffer, 10, 200)
        assert block.shape == (190, 3)
        for i, position in enumerate((10, 57, 199)):
            expected = correlate_many(buffer, codes, position)
            row = block[position - 10]
            np.testing.assert_allclose(row, expected, atol=1e-9)

    def test_matmul_and_fft_agree(self, rng):
        codes = _make_codes(rng, n=2, length=96)
        buffer = rng.normal(0.0, 1.0, size=1000)
        matmul = BatchedCorrelationEngine(codes, fft_min_length=10_000)
        fft = BatchedCorrelationEngine(codes, fft_min_length=1)
        assert not matmul.uses_fft and fft.uses_fft
        np.testing.assert_allclose(
            matmul.correlate_block(buffer, 0, 905),
            fft.correlate_block(buffer, 0, 905),
            atol=1e-9,
        )

    @pytest.mark.parametrize("backend", ENGINES)
    def test_empty_range(self, rng, backend):
        engine = ENGINES[backend](_make_codes(rng, length=16))
        buffer = rng.normal(0.0, 1.0, size=64)
        assert engine.correlate_block(buffer, 5, 5).shape == (0, 4)

    @pytest.mark.parametrize("backend", ENGINES)
    def test_out_of_buffer(self, rng, backend):
        engine = ENGINES[backend](_make_codes(rng, length=16))
        buffer = rng.normal(0.0, 1.0, size=64)
        with pytest.raises(SpreadCodeError):
            engine.correlate_block(buffer, 0, 50)
        with pytest.raises(SpreadCodeError):
            engine.correlate_block(buffer, -1, 3)


class TestSynchronizerBackendWiring:
    def test_engine_instance_accepted(self, rng):
        codes = _make_codes(rng, length=64)
        engine = BatchedCorrelationEngine(codes, block_size=7)
        sync = SlidingWindowSynchronizer(
            codes, tau=0.15, message_bits=4, engine=engine
        )
        assert sync.engine is engine

    def test_engine_code_set_must_match(self, rng):
        codes = _make_codes(rng, length=64)
        other = _make_codes(rng, n=2, length=64)
        engine = BatchedCorrelationEngine(other)
        with pytest.raises(SpreadCodeError):
            SlidingWindowSynchronizer(
                codes, tau=0.15, message_bits=4, engine=engine
            )


def _equivalent_results(codes, buffer, message_bits, confirm_blocks=3,
                        tau=0.15):
    """Run scan_all under every engine and assert identical sequences."""
    outcomes = {}
    for backend, make in ENGINES.items():
        sync = SlidingWindowSynchronizer(
            codes,
            tau=tau,
            message_bits=message_bits,
            confirm_blocks=confirm_blocks,
            engine=make(codes),
        )
        outcomes[backend] = sync.scan_all(buffer)
    reference = outcomes["naive"]
    for backend, results in outcomes.items():
        assert results == reference, (
            f"{backend} diverged from the oracle: "
            f"{[(r.position, r.code.code_id, r.correlations_computed) for r in results]} "
            f"vs {[(r.position, r.code.code_id, r.correlations_computed) for r in reference]}"
        )
    return reference


class TestBackendEquivalence:
    """The adversarial test matrix: clean / superposed / jammed buffers."""

    def test_clean_channel(self, rng):
        codes = _make_codes(rng)
        bits = rng.integers(0, 2, size=10, dtype=np.int8)
        channel = ChipChannel(noise_std=0.0)
        channel.add_message(bits, codes[1], offset=303)
        buffer = channel.render()
        results = _equivalent_results(codes, buffer, message_bits=10)
        assert [r.position for r in results] == [303]
        assert results[0].bits == bits.tolist()

    def test_superposed_channel(self, rng):
        codes = _make_codes(rng)
        channel = ChipChannel(noise_std=0.3)
        bits = rng.integers(0, 2, size=8, dtype=np.int8)
        channel.add_message(bits, codes[0], offset=0)
        channel.add_message(bits, codes[2], offset=8 * 512 + 191)
        foreign = SpreadCode.random(512, rng)
        channel.add_message(
            rng.integers(0, 2, size=16, dtype=np.int8), foreign, offset=100
        )
        buffer = channel.render(rng=rng)
        results = _equivalent_results(codes, buffer, message_bits=8)
        assert len(results) >= 1

    def test_jammed_channel(self, rng):
        codes = _make_codes(rng)
        channel = ChipChannel(noise_std=0.3)
        bits = rng.integers(0, 2, size=10, dtype=np.int8)
        channel.add_message(bits, codes[3], offset=512)
        # Correct-code jam over the tail plus a wrong-code jam over the
        # head: plenty of spurious threshold crossings to stress the
        # confirm accounting.
        channel.add_jamming(
            codes[3], offset=6 * 512, n_bits=6, rng=rng, amplitude=2.0
        )
        channel.add_jamming(
            codes[1], offset=0, n_bits=10, rng=rng, amplitude=1.5
        )
        buffer = channel.render(rng=rng)
        _equivalent_results(codes, buffer, message_bits=10)

    def test_noise_only_buffer(self, rng):
        codes = _make_codes(rng, n=3, length=64)
        buffer = rng.normal(0.0, 1.0, size=3000)
        results = _equivalent_results(
            codes, buffer, message_bits=4, confirm_blocks=2, tau=0.2
        )
        # Nothing real on the channel; whatever the oracle decides,
        # the production paths must decide identically (checked above).
        assert all(r.position >= 0 for r in results)

    def test_scan_start_offset_equivalence(self, rng):
        codes = _make_codes(rng, n=2)
        bits = rng.integers(0, 2, size=6, dtype=np.int8)
        channel = ChipChannel(noise_std=0.2)
        channel.add_message(bits, codes[0], offset=40)
        channel.add_message(bits, codes[1], offset=6 * 512 + 1000)
        buffer = channel.render(rng=rng)
        scans = {}
        for backend, make in ENGINES.items():
            sync = SlidingWindowSynchronizer(
                codes, tau=0.15, message_bits=6, engine=make(codes)
            )
            scans[backend] = sync.scan(buffer, start=2000)
        for backend in ENGINES:
            assert scans[backend] == scans["naive"], backend
        assert scans["naive"] is not None
        assert scans["naive"].code.code_id == 1
