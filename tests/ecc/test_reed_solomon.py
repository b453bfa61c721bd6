"""Unit tests for the Reed-Solomon codec."""

import numpy as np
import pytest

from repro.ecc.reed_solomon import ReedSolomonCodec
from repro.errors import ConfigurationError, EccDecodeError


class TestEncode:
    def test_systematic(self):
        rs = ReedSolomonCodec(4)
        message = [10, 20, 30]
        codeword = rs.encode(message)
        assert codeword[:3] == message
        assert len(codeword) == 7

    def test_parity_makes_syndromes_zero(self, rng):
        rs = ReedSolomonCodec(6)
        message = [int(x) for x in rng.integers(0, 256, size=20)]
        codeword = rs.encode(message)
        assert all(s == 0 for s in rs._syndromes(codeword))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ReedSolomonCodec(4).encode([])

    def test_rejects_oversize(self):
        rs = ReedSolomonCodec(4)
        with pytest.raises(ConfigurationError):
            rs.encode([0] * 252)

    def test_rejects_bad_symbols(self):
        with pytest.raises(ConfigurationError):
            ReedSolomonCodec(4).encode([256])

    def test_rejects_bad_parity_count(self):
        with pytest.raises(ConfigurationError):
            ReedSolomonCodec(0)
        with pytest.raises(ConfigurationError):
            ReedSolomonCodec(255)

    @pytest.mark.parametrize("n_parity", [2.5, True])
    def test_rejects_non_integer_parity_count(self, n_parity):
        with pytest.raises(ConfigurationError, match="n_parity"):
            ReedSolomonCodec(n_parity)


class TestDecodeClean:
    def test_identity(self, rng):
        rs = ReedSolomonCodec(8)
        message = [int(x) for x in rng.integers(0, 256, size=30)]
        assert rs.decode(rs.encode(message)) == message


class TestDecodeErrors:
    @pytest.mark.parametrize("n_errors", [1, 2, 3, 4])
    def test_corrects_up_to_capability(self, rng, n_errors):
        rs = ReedSolomonCodec(8)
        message = [int(x) for x in rng.integers(0, 256, size=40)]
        codeword = rs.encode(message)
        positions = rng.choice(len(codeword), size=n_errors, replace=False)
        for position in positions:
            codeword[position] ^= int(rng.integers(1, 256))
        assert rs.decode(codeword) == message

    def test_error_in_parity(self, rng):
        rs = ReedSolomonCodec(4)
        message = [1, 2, 3]
        codeword = rs.encode(message)
        codeword[-1] ^= 0xFF
        assert rs.decode(codeword) == message

    def test_too_many_errors_raises(self, rng):
        rs = ReedSolomonCodec(4)
        message = [int(x) for x in rng.integers(0, 256, size=20)]
        codeword = rs.encode(message)
        for position in range(6):
            codeword[position] ^= 0x5A
        with pytest.raises(EccDecodeError):
            rs.decode(codeword)


class TestDecodeErasures:
    @pytest.mark.parametrize("n_erasures", [1, 4, 8])
    def test_corrects_up_to_n_parity(self, rng, n_erasures):
        rs = ReedSolomonCodec(8)
        message = [int(x) for x in rng.integers(0, 256, size=40)]
        codeword = rs.encode(message)
        positions = rng.choice(
            len(codeword), size=n_erasures, replace=False
        ).tolist()
        for position in positions:
            codeword[position] = 0
        assert rs.decode(codeword, positions) == message

    def test_too_many_erasures(self, rng):
        rs = ReedSolomonCodec(4)
        codeword = rs.encode([1, 2, 3])
        with pytest.raises(EccDecodeError):
            rs.decode(codeword, [0, 1, 2, 3, 4])

    def test_erasure_position_out_of_range(self):
        rs = ReedSolomonCodec(4)
        codeword = rs.encode([1, 2, 3])
        with pytest.raises(ConfigurationError):
            rs.decode(codeword, [99])


class TestMixedErrorsErasures:
    def test_two_errors_plus_four_erasures(self, rng):
        """2e + f <= n_parity with n_parity = 8."""
        rs = ReedSolomonCodec(8)
        message = [int(x) for x in rng.integers(0, 256, size=60)]
        codeword = rs.encode(message)
        positions = rng.choice(len(codeword), size=6, replace=False)
        error_positions, erasure_positions = positions[:2], positions[2:]
        for position in error_positions:
            codeword[position] ^= int(rng.integers(1, 256))
        for position in erasure_positions:
            codeword[position] = int(rng.integers(0, 256))
        assert rs.decode(codeword, erasure_positions.tolist()) == message

    def test_fuzz_within_capability(self, rng):
        for _ in range(60):
            n_parity = int(rng.integers(2, 24))
            k = int(rng.integers(1, 255 - n_parity))
            rs = ReedSolomonCodec(n_parity)
            message = [int(x) for x in rng.integers(0, 256, size=k)]
            codeword = rs.encode(message)
            e = int(rng.integers(0, n_parity // 2 + 1))
            f = int(rng.integers(0, n_parity - 2 * e + 1))
            positions = rng.choice(len(codeword), size=e + f, replace=False)
            for position in positions[:e]:
                codeword[position] ^= int(rng.integers(1, 256))
            for position in positions[e:]:
                codeword[position] = int(rng.integers(0, 256))
            assert rs.decode(codeword, positions[e:].tolist()) == message


class TestCapabilityBoundary:
    def test_exact_capability_boundary(self):
        # 2e + f == n - k exactly, the deepest erasure fold.
        n_parity = 6
        message = list(range(20))
        rs = ReedSolomonCodec(n_parity)
        for e, f in ((0, 6), (1, 4), (2, 2), (3, 0)):
            word = rs.encode(message)
            positions = list(range(e + f))
            for position in positions:
                word[position] ^= 0xA5
            assert rs.decode(word, positions[e:]) == message

    def test_longest_erasure_only_word(self, rng):
        # k = n_parity = 127: a 254-symbol word with every parity
        # symbol spent on an erasure.
        rs = ReedSolomonCodec(127)
        message = [int(x) for x in rng.integers(0, 256, size=127)]
        codeword = rs.encode(message)
        assert len(codeword) == 254
        erasures = sorted(
            rng.choice(len(codeword), size=127, replace=False).tolist()
        )
        for position in erasures:
            codeword[position] ^= int(rng.integers(1, 256))
        assert rs.decode(codeword, erasures) == message


class TestTypedSymbols:
    def test_encode_rejects_float_symbol(self):
        with pytest.raises(ConfigurationError, match="2.5"):
            ReedSolomonCodec(4).encode([1, 2.5, 3])

    def test_encode_rejects_float_in_long_message(self):
        message = [1] * 70
        message[10] = 2.5
        with pytest.raises(ConfigurationError, match="2.5"):
            ReedSolomonCodec(4).encode(message)

    def test_decode_rejects_float_in_long_word(self):
        rs = ReedSolomonCodec(4)
        word = rs.encode([7] * 70)
        word[3] = 7.9
        with pytest.raises(ConfigurationError, match="7.9"):
            rs.decode(word)

    def test_rejects_bool_symbol(self):
        rs = ReedSolomonCodec(4)
        with pytest.raises(ConfigurationError, match="True"):
            rs.encode([1, True, 3])
        word = rs.encode([1, 1, 3])
        word[1] = True
        with pytest.raises(ConfigurationError, match="True"):
            rs.decode(word)

    def test_rejects_non_integer_erasure_position(self):
        rs = ReedSolomonCodec(4)
        word = rs.encode([1, 2, 3])
        with pytest.raises(ConfigurationError, match="1.5"):
            rs.decode(word, [1.5])
        with pytest.raises(ConfigurationError, match="False"):
            rs.decode(word, [False])

    def test_accepts_numpy_integers(self):
        rs = ReedSolomonCodec(4)
        message = np.array([10, 20, 30], dtype=np.uint8)
        codeword = rs.encode(message)
        assert codeword == rs.encode([10, 20, 30])
        assert all(type(symbol) is int for symbol in codeword)
        codeword[0] ^= 0x11
        erasures = np.array([0], dtype=np.int64)
        assert rs.decode(np.array(codeword), erasures) == [10, 20, 30]


class TestMetadata:
    def test_correction_capability(self):
        assert ReedSolomonCodec(8).correction_capability() == (4, 8)

    def test_repr(self):
        assert "8" in repr(ReedSolomonCodec(8))

    def test_short_word_rejected(self):
        rs = ReedSolomonCodec(8)
        with pytest.raises(ConfigurationError):
            rs.decode([1, 2, 3])
