"""Correlation engines for the sliding-window acquisition search.

The receiver's synchronization cost — the ``t_p = rho * N * m * R * t_b``
the paper's whole buffer/process schedule is built around (Section V-B) —
is dominated by evaluating one normalized correlation per (window
position, code) pair.  This module factors that evaluation out of
:class:`~repro.dsss.synchronizer.SlidingWindowSynchronizer` behind a small
engine interface so the *search semantics* (first threshold crossing,
confirmation blocks, work accounting) stay in one place.

:class:`BatchedCorrelationEngine` is the one production engine.  It
precomputes the stacked ``(N x m)`` code matrix once and picks its
arithmetic by chip length:

- short codes view the buffer as a ``(positions x N)`` matrix with
  :func:`numpy.lib.stride_tricks.sliding_window_view` (no copy) and
  evaluate a whole block of positions with a single matmul;
- long codes (the paper's ``N = 512`` qualifies) cross-correlate the
  buffer with each reversed code via FFT, ``O((B + N) log(B + N))`` per
  code instead of ``O(B * N)``.

The per-position reference loop is the test oracle
:class:`repro.oracles.NaiveCorrelationEngine`; both return plain float64
correlation blocks, so ``SyncResult`` sequences are identical whichever
engine computed them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.dsss.correlator import code_matrix
from repro.dsss.spread_code import SpreadCode
from repro.errors import SpreadCodeError

__all__ = ["CorrelationEngine", "BatchedCorrelationEngine"]


class CorrelationEngine:
    """Evaluates window-vs-code correlations over a block of positions.

    Parameters
    ----------
    codes:
        The monitored spread-code set.  All codes must share one chip
        length ``N``.
    """

    def __init__(self, codes: Sequence[SpreadCode]) -> None:
        if not codes:
            raise SpreadCodeError(
                "a correlation engine needs at least one code"
            )
        lengths = {code.length for code in codes}
        if len(lengths) != 1:
            raise SpreadCodeError(
                f"all codes must share one chip length, got {lengths}"
            )
        self._codes = tuple(codes)
        self._chip_length = self._codes[0].length

    @property
    def codes(self) -> Sequence[SpreadCode]:
        """The monitored codes, in scan order."""
        return self._codes

    @property
    def n_codes(self) -> int:
        """Number of monitored codes, the paper's ``m``."""
        return len(self._codes)

    @property
    def chip_length(self) -> int:
        """Chip length ``N`` shared by the codes."""
        return self._chip_length

    @property
    def block_size(self) -> int:
        """Preferred number of window positions per :meth:`correlate_block`.

        The synchronizer uses this to size its requests; an engine that
        gains nothing from batching (the per-position oracle) returns 1
        so a scan that locks early computes no more correlations than the
        original per-position loop.
        """
        return 1

    def correlate_block(
        self, buffer: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Correlations for every window position in ``[start, stop)``.

        ``buffer`` must be float64 and every window ``[p, p + N)`` for
        ``p`` in the range must fit inside it.  Returns a
        ``(stop - start, n_codes)`` float64 array whose ``[i, j]`` entry
        is the normalized correlation of the window at ``start + i``
        against code ``j``.
        """
        raise NotImplementedError

    def _check_range(
        self, buffer: np.ndarray, start: int, stop: int
    ) -> None:
        if start < 0 or stop < start:
            raise SpreadCodeError(
                f"invalid position range [{start}, {stop})"
            )
        if stop > start and stop - 1 + self._chip_length > buffer.size:
            raise SpreadCodeError(
                f"window [{stop - 1}, {stop - 1 + self._chip_length}) out "
                f"of buffer of {buffer.size} chips"
            )


class BatchedCorrelationEngine(CorrelationEngine):
    """Matrix-batched correlation over blocks of window positions.

    Parameters
    ----------
    codes:
        The monitored spread-code set.
    block_size:
        Positions evaluated per matmul; bounds the transient
        ``(block x m)`` correlation matrix.
    fft_min_length:
        Chip lengths ``N`` at or above this use the FFT cross-correlation
        path instead of the sliding-window matmul.  The matmul costs
        ``O(block * N)`` per code (plus a block-sized copy, since BLAS
        cannot consume the overlapping strided view directly); the FFT
        costs ``O((block + N) log)`` per code.  Measured on this
        workload the crossover sits near ``N = 128``, so the paper's
        ``N = 512`` default takes the FFT path.  Pass ``1`` to force
        FFT, or a huge value to force the matmul.
    """

    def __init__(
        self,
        codes: Sequence[SpreadCode],
        block_size: int = 4096,
        fft_min_length: int = 128,
    ) -> None:
        super().__init__(codes)
        if block_size <= 0:
            raise SpreadCodeError(
                f"block_size must be positive, got {block_size}"
            )
        if fft_min_length <= 0:
            raise SpreadCodeError(
                f"fft_min_length must be positive, got {fft_min_length}"
            )
        self._block_size = int(block_size)
        self._use_fft = self._chip_length >= int(fft_min_length)
        # Stacked once per engine: (N x m), so a block correlates as
        # (block x N) @ (N x m) — the original code re-stacked this on
        # every single window position.
        self._matrix_t = np.ascontiguousarray(code_matrix(self._codes).T)

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def uses_fft(self) -> bool:
        """Whether this engine evaluates blocks via FFT cross-correlation."""
        return self._use_fft

    def correlate_block(
        self, buffer: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        self._check_range(buffer, start, stop)
        if stop == start:
            return np.zeros((0, self.n_codes), dtype=np.float64)
        if self._use_fft:
            return self._correlate_fft(buffer, start, stop)
        windows = sliding_window_view(buffer, self._chip_length)[start:stop]
        return windows @ self._matrix_t / self._chip_length

    def _correlate_fft(
        self, buffer: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Cross-correlate one buffer segment against every code via FFT.

        ``corr[p, j] = (1/N) * sum_i buffer[start + p + i] * c_j[i]`` is
        the linear convolution of the segment with the reversed code,
        sampled at lags ``N - 1 .. N - 1 + (stop - start)``.
        """
        n = self._chip_length
        count = stop - start
        segment = buffer[start : stop - 1 + n]
        conv_len = segment.size + n - 1
        fft_len = 1 << (conv_len - 1).bit_length()
        segment_f = np.fft.rfft(segment, fft_len)
        # matrix_t rows are chip index 0..N-1; reverse for convolution.
        reversed_codes = self._matrix_t[::-1]
        codes_f = np.fft.rfft(reversed_codes, fft_len, axis=0)
        conv = np.fft.irfft(segment_f[:, np.newaxis] * codes_f,
                            fft_len, axis=0)
        return conv[n - 1 : n - 1 + count] / n

