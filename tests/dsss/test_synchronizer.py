"""Unit tests for the sliding-window synchronizer."""

import numpy as np
import pytest

from repro.dsss.channel import ChipChannel
from repro.dsss.spread_code import SpreadCode
from repro.dsss.synchronizer import SlidingWindowSynchronizer
from repro.errors import EccDecodeError, SpreadCodeError
from tests.dsss.engines import ENGINES

# Barker-13: aperiodic autocorrelation sidelobes of magnitude 1/13, so
# partially overlapping windows can never cross a mid-range threshold —
# which makes scans over buffers built from it hand-countable.
BARKER13 = [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1]


def _make_codes(rng, n=4, length=512):
    return [SpreadCode.random(length, rng, code_id=i) for i in range(n)]


class TestScan:
    def test_finds_message_at_offset(self, rng):
        codes = _make_codes(rng)
        bits = rng.integers(0, 2, size=12, dtype=np.int8)
        channel = ChipChannel(noise_std=0.2)
        channel.add_message(bits, codes[2], offset=777)
        buffer = channel.render(rng=rng)
        sync = SlidingWindowSynchronizer(codes, tau=0.15, message_bits=12)
        result = sync.scan(buffer)
        assert result is not None
        assert result.position == 777
        assert result.code.code_id == 2
        assert result.bits == bits.tolist()

    def test_none_when_no_known_code(self, rng):
        codes = _make_codes(rng, n=3)
        foreign = SpreadCode.random(512, rng)
        channel = ChipChannel()
        channel.add_message(
            rng.integers(0, 2, size=12, dtype=np.int8), foreign, offset=100
        )
        sync = SlidingWindowSynchronizer(codes, tau=0.15, message_bits=12)
        assert sync.scan(channel.render(length=100 + 13 * 512)) is None

    def test_partial_message_not_locked(self, rng):
        codes = _make_codes(rng, n=1)
        bits = rng.integers(0, 2, size=12, dtype=np.int8)
        channel = ChipChannel()
        channel.add_message(bits, codes[0], offset=0)
        # Truncate the buffer so the message cannot fully fit.
        buffer = channel.render()[: 11 * 512]
        sync = SlidingWindowSynchronizer(codes, tau=0.15, message_bits=12)
        assert sync.scan(buffer) is None

    def test_counts_correlations(self, rng):
        codes = _make_codes(rng, n=3, length=64)
        bits = np.ones(4, dtype=np.int8)
        channel = ChipChannel()
        channel.add_message(bits, codes[0], offset=0)
        sync = SlidingWindowSynchronizer(
            codes, tau=0.15, message_bits=4, confirm_blocks=1
        )
        result = sync.scan(channel.render())
        assert result.correlations_computed == 3  # locked at position 0

    def test_scan_from_start_offset(self, rng):
        codes = _make_codes(rng, n=2)
        bits = rng.integers(0, 2, size=8, dtype=np.int8)
        channel = ChipChannel()
        channel.add_message(bits, codes[0], offset=0)
        channel.add_message(bits, codes[1], offset=10 * 512)
        buffer = channel.render()
        sync = SlidingWindowSynchronizer(codes, tau=0.15, message_bits=8)
        second = sync.scan(buffer, start=8 * 512)
        assert second is not None
        assert second.code.code_id == 1


def _reference_scan(codes, tau, message_bits, confirm_blocks, buffer, start=0):
    """Independent reimplementation of the scan, counting by hand.

    Walks the buffer one chip at a time with scalar correlations only —
    no engine, no batching — and charges every (window x code)
    correlation, confirmation blocks included.  The production scan must
    agree with this count exactly.
    """
    buffer = np.asarray(buffer, dtype=np.float64)
    n = codes[0].length
    total = message_bits * n
    computed = 0
    for position in range(start, buffer.size - total + 1):
        computed += len(codes)
        for code in codes:
            if abs(code.correlation(buffer[position : position + n])) < tau:
                continue
            confirmed = True
            for block in range(1, confirm_blocks):
                offset = position + block * n
                computed += 1
                if abs(
                    code.correlation(buffer[offset : offset + n])
                ) < tau:
                    confirmed = False
                    break
            if confirmed:
                return position, code, computed
    return None, None, computed


class TestAccounting:
    """correlations_computed must equal the hand-counted work."""

    @pytest.mark.parametrize("backend", ENGINES)
    def test_hand_counted_with_failed_confirm(self, backend):
        """A crafted buffer whose every correlation is known by hand.

        Layout (N = 13, one code, message_bits = 2, confirm_blocks = 2,
        tau = 0.5): ``[code][zeros][code][code]``.

        - position 0: correlation 1 -> hit; confirm block at offset 13
          sees zeros -> fails.  1 scan correlation + 1 confirm
          correlation.
        - positions 1..25: partial overlaps; Barker sidelobes keep every
          |correlation| <= 1/13 < 0.5.  25 scan correlations.
        - position 26: correlation 1 -> hit; confirm at offset 39 sees
          the second copy -> locks.  1 scan + 1 confirm correlation.

        Total: 27 scan + 2 confirm = 29.
        """
        code = SpreadCode(BARKER13, code_id=0)
        chips = code.chips.astype(np.float64)
        buffer = np.concatenate(
            [chips, np.zeros(13), chips, chips]
        )
        sync = SlidingWindowSynchronizer(
            [code], tau=0.5, message_bits=2, confirm_blocks=2,
            engine=ENGINES[backend]([code]),
        )
        result = sync.scan(buffer)
        assert result is not None
        assert result.position == 26
        assert result.bits == [1, 1]
        assert result.correlations_computed == 29

    @pytest.mark.parametrize("backend", ENGINES)
    def test_clean_lock_counts_confirm_blocks(self, rng, backend):
        """Lock at position 0: m scan correlations + (confirm_blocks - 1)
        confirmation correlations."""
        codes = _make_codes(rng, n=3, length=64)
        bits = np.ones(5, dtype=np.int8)
        channel = ChipChannel()
        channel.add_message(bits, codes[1], offset=0)
        sync = SlidingWindowSynchronizer(
            codes, tau=0.15, message_bits=5, confirm_blocks=3,
            engine=ENGINES[backend](codes),
        )
        result = sync.scan(channel.render())
        assert result is not None
        assert result.position == 0
        assert result.correlations_computed == 3 + 2

    @pytest.mark.parametrize("backend", ENGINES)
    def test_matches_reference_on_noisy_buffer(self, rng, backend):
        """On a buffer full of spurious crossings the production count
        equals the independent chip-by-chip reference count."""
        codes = _make_codes(rng, n=3, length=32)
        channel = ChipChannel(noise_std=0.6)
        channel.add_message(
            rng.integers(0, 2, size=6, dtype=np.int8), codes[2],
            offset=517,
        )
        foreign = SpreadCode.random(32, rng)
        channel.add_message(
            rng.integers(0, 2, size=40, dtype=np.int8), foreign, offset=0
        )
        buffer = channel.render(rng=rng)
        tau, message_bits, confirm_blocks = 0.3, 6, 2
        position, code, computed = _reference_scan(
            codes, tau, message_bits, confirm_blocks, buffer
        )
        sync = SlidingWindowSynchronizer(
            codes, tau=tau, message_bits=message_bits,
            confirm_blocks=confirm_blocks, engine=ENGINES[backend](codes),
        )
        result = sync.scan(buffer)
        if position is None:
            assert result is None
        else:
            assert result is not None
            assert result.position == position
            assert result.code == code
            assert result.correlations_computed == computed


class TestScanValidatedErrors:
    def _locked_buffer(self, rng, codes):
        channel = ChipChannel()
        channel.add_message(
            np.ones(4, dtype=np.int8), codes[0], offset=0
        )
        return channel.render()

    def test_decode_errors_absorbed(self, rng):
        codes = _make_codes(rng, n=1, length=64)
        buffer = self._locked_buffer(rng, codes)
        sync = SlidingWindowSynchronizer(codes, tau=0.15, message_bits=4)

        def validator(result):
            raise EccDecodeError("bit salad")

        assert sync.scan_validated(buffer, validator) is None

    def test_programming_errors_propagate(self, rng):
        """A bug in the validator must not masquerade as a false lock."""
        codes = _make_codes(rng, n=1, length=64)
        buffer = self._locked_buffer(rng, codes)
        sync = SlidingWindowSynchronizer(codes, tau=0.15, message_bits=4)

        def validator(result):
            raise TypeError("validator bug")

        with pytest.raises(TypeError):
            sync.scan_validated(buffer, validator)


class TestScanAll:
    def test_finds_multiple_messages(self, rng):
        codes = _make_codes(rng, n=3)
        channel = ChipChannel(noise_std=0.1)
        bits = rng.integers(0, 2, size=6, dtype=np.int8)
        channel.add_message(bits, codes[0], offset=0)
        channel.add_message(bits, codes[1], offset=6 * 512 + 97)
        sync = SlidingWindowSynchronizer(codes, tau=0.15, message_bits=6)
        results = sync.scan_all(channel.render(rng=rng))
        assert [r.code.code_id for r in results] == [0, 1]

    def test_empty_buffer(self, rng):
        codes = _make_codes(rng, n=1, length=64)
        sync = SlidingWindowSynchronizer(codes, tau=0.15, message_bits=4)
        assert sync.scan_all(np.zeros(10)) == []


class TestValidation:
    def test_needs_codes(self):
        with pytest.raises(SpreadCodeError):
            SlidingWindowSynchronizer([], tau=0.15, message_bits=4)

    def test_mixed_lengths(self, rng):
        codes = [SpreadCode.random(8, rng, 0), SpreadCode.random(16, rng, 1)]
        with pytest.raises(SpreadCodeError):
            SlidingWindowSynchronizer(codes, tau=0.15, message_bits=4)

    def test_bad_confirm_blocks(self, rng):
        codes = [SpreadCode.random(8, rng)]
        with pytest.raises(SpreadCodeError):
            SlidingWindowSynchronizer(
                codes, tau=0.15, message_bits=4, confirm_blocks=5
            )

    @pytest.mark.parametrize("tau", [0.0, -0.1, 1.0 + 1e-9])
    def test_bad_tau(self, rng, tau):
        codes = _make_codes(rng, n=1, length=64)
        with pytest.raises(SpreadCodeError):
            SlidingWindowSynchronizer(codes, tau=tau, message_bits=4)

    def test_tau_one_boundary_locks_clean_message(self, rng):
        # Regression: tau = 1.0 used to be rejected even though the hit
        # mask uses >= tau and a clean block correlates to exactly 1.0.
        # The boundary must be accepted AND still lock a clean message.
        codes = _make_codes(rng, n=1, length=64)
        bits = rng.integers(0, 2, size=4, dtype=np.int8)
        channel = ChipChannel()
        channel.add_message(bits, codes[0], offset=7)
        sync = SlidingWindowSynchronizer(codes, tau=1.0, message_bits=4)
        result = sync.scan(channel.render())
        assert result is not None
        assert result.position == 7
        assert result.bits == bits.tolist()

    def test_correlations_per_buffer(self, rng):
        codes = _make_codes(rng, n=5, length=64)
        sync = SlidingWindowSynchronizer(codes, tau=0.15, message_bits=4)
        # positions = chips - 4*64 + 1
        assert sync.correlations_per_buffer(1000) == (1000 - 256 + 1) * 5

    def test_correlations_per_buffer_too_small(self, rng):
        codes = _make_codes(rng, n=2, length=64)
        sync = SlidingWindowSynchronizer(codes, tau=0.15, message_bits=4)
        assert sync.correlations_per_buffer(10) == 0


class TestFalseLockSuppression:
    def test_confirm_blocks_suppress_false_locks(self, rng):
        """Multi-block confirmation monotonically removes spurious locks.

        A noisy buffer carrying only unrelated traffic produces several
        single-block threshold crossings; each extra confirmation block
        strikes more of them, and a handful of blocks removes all.
        """
        codes = _make_codes(rng, n=8)
        foreign = SpreadCode.random(512, rng)
        channel = ChipChannel(noise_std=0.3)
        channel.add_message(
            rng.integers(0, 2, size=40, dtype=np.int8), foreign, offset=0
        )
        buffer = channel.render(rng=rng)
        locks = []
        for confirm_blocks in (1, 3, 5):
            sync = SlidingWindowSynchronizer(
                codes,
                tau=0.15,
                message_bits=10,
                confirm_blocks=confirm_blocks,
            )
            locks.append(len(sync.scan_all(buffer)))
        assert locks[0] > 0, "single-block locking should be fooled"
        assert locks[0] >= locks[1] >= locks[2]
        assert locks[2] == 0, "five confirm blocks should reject all"


class TestMetrics:
    def test_lock_reports_counters(self, rng):
        from repro.obs import MetricsRegistry, installed

        codes = _make_codes(rng, n=3, length=64)
        bits = np.ones(4, dtype=np.int8)
        channel = ChipChannel()
        channel.add_message(bits, codes[0], offset=5)
        buffer = channel.render()
        sync = SlidingWindowSynchronizer(codes, tau=0.2, message_bits=4)
        with installed(MetricsRegistry()) as registry:
            result = sync.scan(buffer)
        snapshot = registry.snapshot()
        assert result is not None
        assert snapshot.counter("dsss.scans") == 1
        assert snapshot.counter("dsss.locks") == 1
        # The registry total is the same accounting the SyncResult
        # carries — now also visible for scans that never lock.
        assert (
            snapshot.counter("dsss.correlations_computed")
            == result.correlations_computed
        )

    def test_failed_scan_still_reports_work(self, rng):
        from repro.obs import MetricsRegistry, installed

        codes = _make_codes(rng, n=3, length=64)
        sync = SlidingWindowSynchronizer(codes, tau=0.2, message_bits=4)
        buffer = rng.normal(0.0, 0.1, size=1024)
        with installed(MetricsRegistry()) as registry:
            result = sync.scan(buffer)
        snapshot = registry.snapshot()
        assert result is None
        assert snapshot.counter("dsss.locks") == 0
        assert snapshot.counter("dsss.correlations_computed") > 0
