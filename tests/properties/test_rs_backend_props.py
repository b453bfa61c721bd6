"""Equivalence properties: the Reed-Solomon codec vs its scalar oracle.

:class:`~repro.ecc.reed_solomon.ReedSolomonCodec` must be
*bit-identical* to :class:`~repro.oracles.ScalarReedSolomonCodec`:
same codewords, same decoded symbols for every errors+erasures pattern
within capability (including the exact boundary ``2e + f = n - k``),
and the same :class:`~repro.errors.EccDecodeError` outcome beyond it.
The :class:`~repro.ecc.codec.ExpansionCodec` sweep checks every chunk
against the oracle across the chunking boundaries (one symbol, exactly
``_max_data_symbols``, one past it, and multiple chunks).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.codec import ExpansionCodec
from repro.ecc.reed_solomon import ReedSolomonCodec
from repro.errors import EccDecodeError
from repro.oracles import ScalarReedSolomonCodec

symbol = st.integers(min_value=0, max_value=255)


@st.composite
def backend_case(draw):
    """A message plus a corruption pattern, possibly over capability."""
    n_parity = draw(st.integers(min_value=2, max_value=16))
    k = draw(st.integers(min_value=1, max_value=100))
    message = draw(st.lists(symbol, min_size=k, max_size=k))
    n = k + n_parity
    e = draw(st.integers(min_value=0, max_value=n_parity // 2 + 1))
    f = draw(
        st.integers(min_value=0, max_value=min(n_parity + 1, n - e))
    )
    positions = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=e + f,
            max_size=e + f,
            unique=True,
        )
    )
    flips = draw(
        st.lists(
            st.integers(min_value=1, max_value=255),
            min_size=e + f,
            max_size=e + f,
        )
    )
    return n_parity, message, positions[:e], positions[e:], flips


class TestReedSolomonBackendEquivalence:
    @given(backend_case())
    @settings(max_examples=150, deadline=None)
    def test_decode_agrees_including_failures(self, case):
        n_parity, message, error_pos, erasure_pos, flips = case
        naive = ScalarReedSolomonCodec(n_parity)
        vectorized = ReedSolomonCodec(n_parity)
        codeword = naive.encode(message)
        assert vectorized.encode(message) == codeword
        for position, flip in zip(error_pos + erasure_pos, flips):
            codeword[position] ^= flip
        try:
            want = naive.decode(codeword, erasure_pos)
        except EccDecodeError:
            with pytest.raises(EccDecodeError):
                vectorized.decode(codeword, erasure_pos)
        else:
            assert vectorized.decode(codeword, erasure_pos) == want

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_decode_batch_agrees(self, n_parity, k, batch, seed):
        rng = np.random.default_rng(seed)
        naive = ScalarReedSolomonCodec(n_parity)
        vectorized = ReedSolomonCodec(n_parity)
        messages = rng.integers(
            0, 256, size=(batch, k), dtype=np.uint8
        ).tolist()
        words = naive.encode_batch(messages)
        assert vectorized.encode_batch(messages) == words
        n = k + n_parity
        erasure_lists = []
        for word in words:
            f = int(rng.integers(0, n_parity + 1))
            hit = rng.choice(n, size=f, replace=False)
            for position in hit:
                word[int(position)] ^= int(rng.integers(1, 256))
            erasure_lists.append([int(p) for p in hit])
        want = naive.decode_batch(words, erasure_lists)
        assert vectorized.decode_batch(words, erasure_lists) == want
        assert want == messages

    def test_exact_capability_boundary(self):
        # 2e + f == n - k exactly, the deepest fold depth.
        n_parity = 6
        message = list(range(20))
        for e, f in ((0, 6), (1, 4), (2, 2), (3, 0)):
            naive = ScalarReedSolomonCodec(n_parity)
            vectorized = ReedSolomonCodec(n_parity)
            word = naive.encode(message)
            positions = list(range(e + f))
            for position in positions:
                word[position] ^= 0xA5
            erasures = positions[e:]
            assert (
                naive.decode(list(word), erasures)
                == vectorized.decode(list(word), erasures)
                == message
            )


class TestExpansionCodecBackendEquivalence:
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
        for bits in (1, 8, 8 * max_symbols, 8 * max_symbols + 1,
                     8 * (2 * max_symbols) + 13):
            plain = rng.integers(0, 2, size=bits, dtype=np.int8)
            coded = codec.encode(plain)
            data = codec._pack(plain)
            symbols = np.packbits(coded.astype(np.uint8)).tolist()
            chunks = list(self._chunks(codec, len(data)))
            offset = 0
            for start, k, n_parity in chunks:
                assert symbols[start : start + k + n_parity] == (
                    ScalarReedSolomonCodec(n_parity).encode(
                        data[offset : offset + k]
                    )
                )
                offset += k
            decisions = [int(b) for b in coded]
            if case == "erasures":
                # Erase one whole symbol's worth of leading bits; this
                # stays within every chunk's parity budget.
                for position in range(min(8, len(decisions))):
                    decisions[position] = None
            decoded = []
            for start, k, n_parity in chunks:
                word, erasures = codec._lift(
                    decisions[8 * start : 8 * (start + k + n_parity)]
                )
                decoded.extend(
                    ScalarReedSolomonCodec(n_parity).decode(word, erasures)
                )
            want = np.unpackbits(np.asarray(decoded, dtype=np.uint8))
            assert np.array_equal(codec.decode(decisions, bits), want[:bits])
            assert np.array_equal(want[:bits], plain)
