"""Property-based tests for the Reed-Solomon codec."""

from hypothesis import given, settings, strategies as st

from repro.ecc.reed_solomon import ReedSolomonCodec
from repro.errors import EccDecodeError

symbol = st.integers(min_value=0, max_value=255)


@st.composite
def corruption_case(draw):
    """A message plus an errors+erasures pattern within capability."""
    n_parity = draw(st.integers(min_value=2, max_value=20))
    k = draw(st.integers(min_value=1, max_value=255 - n_parity))
    message = draw(
        st.lists(symbol, min_size=k, max_size=k)
    )
    n = k + n_parity
    e = draw(st.integers(min_value=0, max_value=n_parity // 2))
    f = draw(st.integers(min_value=0, max_value=n_parity - 2 * e))
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


@st.composite
def overload_case(draw):
    """A message plus a corruption pattern up to one past capability."""
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


class TestRSRoundtrip:
    @given(corruption_case())
    @settings(max_examples=120, deadline=None)
    def test_decode_within_capability(self, case):
        n_parity, message, error_pos, erasure_pos, flips = case
        rs = ReedSolomonCodec(n_parity)
        codeword = rs.encode(message)
        for position, flip in zip(error_pos + erasure_pos, flips):
            codeword[position] ^= flip
        assert rs.decode(codeword, erasure_pos) == message

    @given(
        st.integers(min_value=2, max_value=16),
        st.lists(symbol, min_size=1, max_size=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_clean_roundtrip(self, n_parity, message):
        rs = ReedSolomonCodec(n_parity)
        assert rs.decode(rs.encode(message)) == message

    @given(
        st.integers(min_value=2, max_value=16),
        st.lists(symbol, min_size=1, max_size=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_codeword_length(self, n_parity, message):
        rs = ReedSolomonCodec(n_parity)
        assert len(rs.encode(message)) == len(message) + n_parity

    @given(overload_case())
    @settings(max_examples=150, deadline=None)
    def test_decode_raises_or_stays_in_budget(self, case):
        """Within ``2e + f <= n - k`` the message comes back; past it the
        decoder raises ``EccDecodeError`` or returns a message whose
        codeword is within the budget of the received word."""
        n_parity, message, error_pos, erasure_pos, flips = case
        rs = ReedSolomonCodec(n_parity)
        received = rs.encode(message)
        for position, flip in zip(error_pos + erasure_pos, flips):
            received[position] ^= flip
        if 2 * len(error_pos) + len(erasure_pos) <= n_parity:
            assert rs.decode(received, erasure_pos) == message
            return
        try:
            decoded = rs.decode(received, erasure_pos)
        except EccDecodeError:
            return
        codeword = rs.encode(decoded)
        erased = set(erasure_pos)
        errors = sum(
            1
            for position, (a, b) in enumerate(zip(codeword, received))
            if a != b and position not in erased
        )
        assert 2 * errors + len(erased) <= n_parity

