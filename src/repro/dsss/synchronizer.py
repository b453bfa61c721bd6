"""Sliding-window synchronization (Section V-B).

A receiver that has buffered ``f`` chips does not know where (or with which
of its ``m`` codes) an incoming HELLO starts.  The paper's receiver slides
an ``N``-chip window over every position ``1 <= i <= f`` and correlates it
against each code in its set; the first position whose correlation
magnitude crosses ``tau`` marks the start of a message spread with that
code, which is then de-spread block by block.

:class:`SlidingWindowSynchronizer` implements exactly that, and also counts
the number of correlations computed so the protocol timing model
(``t_p = rho * N * m * R * t_b``) can be validated against actual work.
The counter charges every (window x code) correlation the paper's receiver
would evaluate — including the extra confirmation-block correlations spent
on candidate hits — regardless of which engine computed them.

The correlation arithmetic itself lives in :mod:`repro.dsss.engine`:
:class:`~repro.dsss.engine.BatchedCorrelationEngine` evaluates whole
blocks of window positions with one matmul (or an FFT cross-correlation
for large ``N``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsss.engine import BatchedCorrelationEngine, CorrelationEngine
from repro.dsss.spread_code import SpreadCode
from repro.dsss.spreader import despread
from repro.errors import DecodeError, SpreadCodeError
from repro.obs import current as _metrics
from repro.obs import names as _names

__all__ = ["SyncResult", "SlidingWindowSynchronizer"]


@dataclass(frozen=True)
class SyncResult:
    """A message located and de-spread from a chip buffer.

    Attributes
    ----------
    code:
        The spread code that locked.
    position:
        Chip index where the message begins.
    bits:
        De-spread bit decisions; ``None`` entries are erasures.
    correlations_computed:
        Number of (window x code) correlations evaluated up to and
        including the lock, confirmation blocks included.
    """

    code: SpreadCode
    position: int
    bits: List[Optional[int]]
    correlations_computed: int


class SlidingWindowSynchronizer:
    """Scans a chip buffer for messages spread with any of a node's codes.

    Parameters
    ----------
    codes:
        The receiver's spread-code set (the paper's ``C_B``).
    tau:
        Correlation decision threshold.
    message_bits:
        Expected message length in bits (the paper's ``l_h`` for HELLOs);
        de-spreading stops after this many blocks.
    confirm_blocks:
        Consecutive blocks that must all cross ``tau`` for a lock.
    engine:
        An already-built :class:`~repro.dsss.engine.CorrelationEngine`
        over the same codes; ``None`` (default) builds a
        :class:`~repro.dsss.engine.BatchedCorrelationEngine`.
    """

    def __init__(
        self,
        codes: Sequence[SpreadCode],
        tau: float,
        message_bits: int,
        confirm_blocks: int = 3,
        engine: Optional[CorrelationEngine] = None,
    ) -> None:
        if not codes:
            raise SpreadCodeError("synchronizer needs at least one code")
        lengths = {code.length for code in codes}
        if len(lengths) != 1:
            raise SpreadCodeError(
                f"all codes must share one chip length, got {lengths}"
            )
        if not 0 < tau <= 1:
            # Half-open on the right: the hit mask uses >= tau and a
            # noiseless self-correlation is exactly 1.0, so tau = 1.0 is
            # the legitimate "perfect match only" operating point.
            raise SpreadCodeError(f"tau must be in (0, 1], got {tau}")
        if message_bits <= 0:
            raise SpreadCodeError(
                f"message_bits must be positive, got {message_bits}"
            )
        if not 1 <= confirm_blocks <= message_bits:
            raise SpreadCodeError(
                f"confirm_blocks must be in [1, {message_bits}], "
                f"got {confirm_blocks}"
            )
        self._codes = list(codes)
        self._tau = float(tau)
        self._message_bits = int(message_bits)
        self._confirm_blocks = int(confirm_blocks)
        self._chip_length = self._codes[0].length
        if engine is None:
            engine = BatchedCorrelationEngine(self._codes)
        elif list(engine.codes) != self._codes:
            raise SpreadCodeError(
                "engine monitors a different code set than the "
                "synchronizer"
            )
        self._engine: CorrelationEngine = engine

    @property
    def chip_length(self) -> int:
        """Chip length ``N`` of the codes being monitored."""
        return self._chip_length

    @property
    def codes(self) -> List[SpreadCode]:
        """The codes being monitored, in scan order."""
        return list(self._codes)

    @property
    def message_bits(self) -> int:
        """Message length (in bits) a lock must fully contain."""
        return self._message_bits

    @property
    def engine(self) -> CorrelationEngine:
        """The correlation engine evaluating this synchronizer's scans."""
        return self._engine

    def scan(
        self, buffer: np.ndarray, start: int = 0
    ) -> Optional[SyncResult]:
        """Find the first message at or after chip position ``start``.

        Returns ``None`` when no code locks anywhere in the buffer.  A lock
        at position ``i`` requires the full ``message_bits`` blocks to fit
        in the buffer (a partially buffered message is left for the next
        buffer, as in the paper's schedule where ``t_b = (m+1) t_h``
        guarantees one complete copy).
        """
        buffer = np.asarray(buffer, dtype=np.float64)
        n = self._chip_length
        m = len(self._codes)
        total_chips = self._message_bits * n
        last_start = buffer.size - total_chips
        block = max(1, self._engine.block_size)
        computed = 0
        false_alarms = 0
        position = int(start)
        while position <= last_start:
            stop = min(position + block, last_start + 1)
            correlations = self._engine.correlate_block(
                buffer, position, stop
            )
            hit_mask = np.abs(correlations) >= self._tau
            if hit_mask.any():
                for row in np.flatnonzero(hit_mask.any(axis=1)):
                    candidate = position + int(row)
                    for hit in np.flatnonzero(hit_mask[row]):
                        code = self._codes[int(hit)]
                        confirmed, extra = self._confirm(
                            buffer, code, candidate
                        )
                        computed += extra
                        if not confirmed:
                            # A spurious single-block hit: at tau = 0.15
                            # and N = 512 the cross-correlation of an
                            # unrelated code crosses the threshold once
                            # every ~1500 positions, so a lock requires
                            # confirm_blocks consecutive threshold
                            # crossings with the same code.
                            false_alarms += 1
                            continue
                        computed += (int(row) + 1) * m
                        self._report_scan(computed, false_alarms, locked=True)
                        window = buffer[candidate : candidate + total_chips]
                        bits = despread(window, code, self._tau)
                        return SyncResult(code, candidate, bits, computed)
            computed += (stop - position) * m
            position = stop
        self._report_scan(computed, false_alarms, locked=False)
        return None

    @staticmethod
    def _report_scan(
        computed: int, false_alarms: int, locked: bool
    ) -> None:
        """Publish one scan's work to the installed metrics registry.

        This is what makes correlation work visible for scans that do
        *not* lock — a :class:`SyncResult` only exists on success, so
        without the registry those correlations were invisible.
        """
        registry = _metrics()
        if not registry.enabled:
            return
        registry.inc(_names.DSSS_SCANS)
        registry.inc(_names.DSSS_CORRELATIONS_COMPUTED, computed)
        if false_alarms:
            registry.inc(_names.DSSS_FALSE_ALARMS, false_alarms)
        if locked:
            registry.inc(_names.DSSS_LOCKS)

    def _confirm(
        self, buffer: np.ndarray, code: SpreadCode, position: int
    ) -> Tuple[bool, int]:
        """Require the first ``confirm_blocks`` blocks to all lock.

        Returns ``(confirmed, correlations_performed)`` — the check
        short-circuits on the first failed block, and every correlation
        it did evaluate is charged to the work counter.
        """
        n = self._chip_length
        performed = 0
        for block in range(1, self._confirm_blocks):
            offset = position + block * n
            window = buffer[offset : offset + n]
            performed += 1
            if abs(code.correlation(window)) < self._tau:
                return False, performed
        return True, performed

    def scan_validated(
        self,
        buffer: np.ndarray,
        validator: "Callable[[SyncResult], object]",
    ) -> Optional[object]:
        """Scan with upper-layer validation, retrying on false locks.

        ``validator`` receives each candidate lock and returns a decoded
        object, or raises :class:`~repro.errors.DecodeError` / returns
        ``None`` to reject it (typically an ECC decode: a false lock
        produces an undecodable bit salad).  Only decode failures are
        absorbed — any other exception from the validator is a
        programming error and propagates.  On rejection the scan resumes
        one chip past the false position — the cheap, standard recovery
        the paper's receiver implies.
        """
        position = 0
        while True:
            result = self.scan(buffer, start=position)
            if result is None:
                return None
            try:
                decoded = validator(result)
            except DecodeError:
                decoded = None
            if decoded is not None:
                return decoded
            position = result.position + 1

    def scan_all(self, buffer: np.ndarray) -> List[SyncResult]:
        """Find every non-overlapping message in the buffer, in order.

        After a lock the scan resumes at the end of the located message,
        mirroring the paper's receiver that keeps processing the rest of
        the buffer because several neighbors may be initiating discovery
        concurrently.
        """
        results: List[SyncResult] = []
        position = 0
        while True:
            result = self.scan(buffer, start=position)
            if result is None:
                return results
            results.append(result)
            position = result.position + self._message_bits * self._chip_length

    def correlations_per_buffer(self, buffer_chips: int) -> int:
        """Worst-case correlations for a full scan of ``buffer_chips``.

        This is the quantity the paper charges ``rho * N`` seconds each:
        every chip position times every monitored code.
        """
        if buffer_chips < 0:
            raise SpreadCodeError(
                f"buffer_chips must be non-negative, got {buffer_chips}"
            )
        positions = max(
            0, buffer_chips - self._message_bits * self._chip_length + 1
        )
        return positions * len(self._codes)
