"""Unit tests for the rate-mu expansion codec."""

import numpy as np
import pytest

from repro.ecc.codec import ExpansionCodec, erasure_tolerance
from repro.ecc.reed_solomon import ReedSolomonCodec
from repro.errors import ConfigurationError, DecodeError


class TestErasureTolerance:
    def test_paper_value(self):
        assert erasure_tolerance(1.0) == pytest.approx(0.5)

    def test_monotone_in_mu(self):
        assert erasure_tolerance(2.0) > erasure_tolerance(1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            erasure_tolerance(0.0)


class TestRoundtrip:
    @pytest.mark.parametrize("n_bits", [1, 8, 21, 100, 672])
    def test_clean(self, rng, n_bits):
        codec = ExpansionCodec(1.0)
        bits = rng.integers(0, 2, size=n_bits).astype(np.int8)
        coded = codec.encode(bits)
        decoded = codec.decode([int(b) for b in coded], n_bits)
        assert np.array_equal(decoded, bits)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_expansion_close_to_target(self, mu):
        codec = ExpansionCodec(mu)
        n_bits = 800
        coded = codec.encoded_bits(n_bits)
        assert coded >= (1 + mu) * n_bits
        assert coded <= (1 + mu) * n_bits * 1.2  # bounded rounding

    def test_large_message_chunks(self, rng):
        """Messages beyond one RS codeword chunk correctly."""
        codec = ExpansionCodec(1.0)
        bits = rng.integers(0, 2, size=4000).astype(np.int8)
        coded = codec.encode(bits)
        decoded = codec.decode([int(b) for b in coded], 4000)
        assert np.array_equal(decoded, bits)


class TestBurstErasures:
    def test_tolerated_burst_decodes(self, rng):
        codec = ExpansionCodec(1.0)
        n_bits = 160
        bits = rng.integers(0, 2, size=n_bits).astype(np.int8)
        coded = [int(b) for b in codec.encode(bits)]
        burst = codec.tolerated_burst_bits(n_bits)
        assert burst > 0
        start = 13
        for i in range(start, start + burst):
            coded[i] = None
        decoded = codec.decode(coded, n_bits)
        assert np.array_equal(decoded, bits)

    def test_half_message_burst_fails_at_mu_one(self, rng):
        """Jamming more than mu/(1+mu) = half of the bits defeats it."""
        codec = ExpansionCodec(1.0)
        n_bits = 160
        bits = rng.integers(0, 2, size=n_bits).astype(np.int8)
        coded = [int(b) for b in codec.encode(bits)]
        n_jam = int(len(coded) * 0.6)
        for i in range(len(coded) - n_jam, len(coded)):
            coded[i] = None
        with pytest.raises(DecodeError):
            codec.decode(coded, n_bits)

    def test_bit_errors_also_corrected(self, rng):
        codec = ExpansionCodec(1.0)
        bits = rng.integers(0, 2, size=64).astype(np.int8)
        coded = [int(b) for b in codec.encode(bits)]
        # Flip one full symbol's worth of bits: one RS error.
        for i in range(8, 16):
            coded[i] ^= 1
        decoded = codec.decode(coded, 64)
        assert np.array_equal(decoded, bits)


class TestValidation:
    def test_wrong_coded_length(self):
        codec = ExpansionCodec(1.0)
        with pytest.raises(ConfigurationError):
            codec.decode([0] * 10, 21)

    def test_rejects_empty_message(self):
        with pytest.raises(ConfigurationError):
            ExpansionCodec(1.0).encode(np.zeros(0, dtype=np.int8))

    def test_rejects_bad_mu(self):
        with pytest.raises(ConfigurationError):
            ExpansionCodec(0.0)

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), True])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(ConfigurationError, match="mu"):
            ExpansionCodec(mu)
        with pytest.raises(ConfigurationError, match="mu"):
            erasure_tolerance(mu)

    @pytest.mark.parametrize("message_bits", [0, 2.5, True])
    def test_rejects_bad_message_bits(self, message_bits):
        codec = ExpansionCodec(1.0)
        with pytest.raises(ConfigurationError, match="message_bits"):
            codec.encoded_bits(message_bits)
        with pytest.raises(ConfigurationError, match="message_bits"):
            codec.tolerated_burst_bits(message_bits)
        with pytest.raises(ConfigurationError, match="message_bits"):
            codec.decode([0] * 48, message_bits)

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            ExpansionCodec(1.0).encode(np.array([0, 2], dtype=np.int8))

    @pytest.mark.parametrize("bad", [[1.5, 0, 1], [True, False], [257, 1]])
    def test_rejects_non_integer_bits(self, bad):
        with pytest.raises(ConfigurationError, match="only 0 and 1"):
            ExpansionCodec(1.0).encode(bad)

    def test_parity_symbols_positive(self):
        codec = ExpansionCodec(0.5)
        assert codec.parity_symbols(1) >= 1
        with pytest.raises(ConfigurationError):
            codec.parity_symbols(0)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, True, "1"])
    def test_rejects_bad_decision(self, bad):
        codec = ExpansionCodec(1.0)
        decisions = [int(b) for b in codec.encode(np.ones(21, np.int8))]
        decisions[17] = bad
        with pytest.raises(ConfigurationError, match="bit 17"):
            codec.decode(decisions, 21)

    def test_accepts_numpy_decisions(self):
        codec = ExpansionCodec(1.0)
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.int8)
        decisions = list(codec.encode(bits))
        decisions[0] = None
        assert np.array_equal(codec.decode(decisions, bits.size), bits)


class TestChunkBoundaries:
    @staticmethod
    def _chunks(codec, n_symbols):
        """``(start, k, n_parity)`` of each RS chunk of ``n_symbols``."""
        start = 0
        for k in codec._chunk_sizes(n_symbols):
            n_parity = codec.parity_symbols(k)
            yield start, k, n_parity
            start += k + n_parity

    @pytest.mark.parametrize("mu", [0.5, 1.0])
    @pytest.mark.parametrize("case", ["clean", "erasures"])
    def test_chunk_boundaries(self, mu, case):
        codec = ExpansionCodec(mu)
        max_symbols = codec._max_data_symbols
        rng = np.random.default_rng(42)
        for bits in (1, 8 * max_symbols, 8 * max_symbols + 1,
                     8 * (2 * max_symbols) + 13):
            plain = rng.integers(0, 2, size=bits, dtype=np.int8)
            coded = codec.encode(plain)
            data = codec._pack(plain)
            symbols = np.packbits(coded.astype(np.uint8)).tolist()
            chunks = list(self._chunks(codec, len(data)))
            assert len(chunks) == -(-len(data) // max_symbols)
            offset = 0
            for start, k, n_parity in chunks:
                assert symbols[start : start + k + n_parity] == (
                    ReedSolomonCodec(n_parity).encode(
                        data[offset : offset + k]
                    )
                )
                offset += k
            decisions = [int(b) for b in coded]
            if case == "erasures":
                # Erase one whole symbol's worth of leading bits; this
                # stays within every chunk's parity budget.
                for position in range(8):
                    decisions[position] = None
            offset = 0
            for start, k, n_parity in chunks:
                word, erasures = codec._lift(
                    decisions[8 * start : 8 * (start + k + n_parity)]
                )
                assert ReedSolomonCodec(n_parity).decode(
                    word, erasures
                ) == data[offset : offset + k]
                offset += k
            assert np.array_equal(codec.decode(decisions, bits), plain)
