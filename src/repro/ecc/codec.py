"""The rate-``mu`` expansion codec used by JR-SND messages.

Section V-B: an ``L``-bit message is ECC-encoded into
``l = (1 + mu) L`` bits and "can tolerate up to a fraction of
``mu / (1 + mu)`` bit errors or losses".  :class:`ExpansionCodec`
realizes that contract with Reed-Solomon over GF(2^8): the message bits
are packed into symbols, each chunk of data symbols gets
``ceil(mu * k)`` parity symbols, and bit-level erasures (failed DSSS
correlation decisions) are lifted to symbol erasures.

The ``mu/(1+mu)`` tolerated fraction holds exactly for *contiguous*
corruption — which is what jamming produces: a reactive jammer destroys a
suffix of the message once it identifies the code, and a random jammer
with the correct code destroys the whole overlap.  Scattered single-bit
erasures are more expensive (each costs a full symbol); the tests
quantify both regimes.
"""

from __future__ import annotations

import math
import numbers
from typing import List, Optional, Sequence

import numpy as np

from repro.ecc.reed_solomon import ReedSolomonCodec
from repro.errors import ConfigurationError, DecodeError, EccDecodeError
from repro.utils.artifact_cache import shared_cache

__all__ = ["ExpansionCodec", "erasure_tolerance"]


def _check_mu(mu: float) -> float:
    if (
        isinstance(mu, bool)
        or not isinstance(mu, numbers.Real)
        or not 0 < mu < math.inf
    ):
        raise ConfigurationError(
            f"mu must be a positive finite number, got {mu!r}"
        )
    return float(mu)


def _check_message_bits(message_bits: int) -> None:
    if (
        isinstance(message_bits, bool)
        or not isinstance(message_bits, numbers.Integral)
        or message_bits <= 0
    ):
        raise ConfigurationError(
            f"message_bits must be a positive integer, got {message_bits!r}"
        )


def erasure_tolerance(mu: float) -> float:
    """The paper's tolerated corruption fraction ``mu / (1 + mu)``."""
    mu = _check_mu(mu)
    return mu / (1.0 + mu)


class ExpansionCodec:
    """Bit-level ECC with expansion factor ``1 + mu``.

    Parameters
    ----------
    mu:
        Redundancy parameter; parity volume is ``mu`` times the data
        volume (the paper's default is ``mu = 1``).
    """

    _SYMBOL_BITS = 8

    def __init__(self, mu: float) -> None:
        self._mu = _check_mu(mu)
        # Largest data chunk whose codeword still fits in an RS word.
        max_codeword = 255
        self._max_data_symbols = max(
            1, int(max_codeword / (1.0 + self._mu))
        )

    @property
    def mu(self) -> float:
        """The redundancy parameter."""
        return self._mu

    def parity_symbols(self, data_symbols: int) -> int:
        """Parity symbols attached to a chunk of ``data_symbols``."""
        if data_symbols <= 0:
            raise ConfigurationError(
                f"data_symbols must be positive, got {data_symbols}"
            )
        return max(1, math.ceil(self._mu * data_symbols))

    def _chunk_sizes(self, data_symbols: int) -> List[int]:
        """Split ``data_symbols`` into near-equal chunks under the RS cap."""
        n_chunks = math.ceil(data_symbols / self._max_data_symbols)
        base = data_symbols // n_chunks
        remainder = data_symbols % n_chunks
        return [base + (1 if i < remainder else 0) for i in range(n_chunks)]

    def _rs(self, n_parity: int) -> ReedSolomonCodec:
        """The RS codec for ``n_parity``, via the shared artifact cache.

        Codecs are shared across every ExpansionCodec in the process,
        the cache is LRU-bounded, and reuse is visible in the
        ``cache.rs_codec`` hit/miss counters.
        """
        return shared_cache().get_or_build(
            "rs_codec", n_parity, lambda: ReedSolomonCodec(n_parity)
        )

    def encoded_bits(self, message_bits: int) -> int:
        """Encoded length in bits for an ``message_bits``-bit message.

        Approximately ``(1 + mu) * message_bits``, rounded up to symbol
        and chunk granularity.
        """
        _check_message_bits(message_bits)
        data_symbols = math.ceil(message_bits / self._SYMBOL_BITS)
        total = 0
        for k in self._chunk_sizes(data_symbols):
            total += k + self.parity_symbols(k)
        return total * self._SYMBOL_BITS

    def encode(self, bits: Sequence[int]) -> np.ndarray:
        """Encode a sequence of integer 0/1 bits; returns the coded bit
        array."""
        arr = np.asarray(bits)
        if arr.size == 0:
            raise ConfigurationError("cannot encode an empty message")
        if (
            arr.dtype.kind not in "iu"
            or not np.isin(arr, (0, 1)).all()
        ):
            raise ConfigurationError("bits must contain only 0 and 1")
        symbols = self._pack(arr.astype(np.int8))
        out: List[int] = []
        offset = 0
        for k in self._chunk_sizes(len(symbols)):
            chunk = symbols[offset : offset + k]
            offset += k
            out.extend(self._rs(self.parity_symbols(k)).encode(chunk))
        return self._unpack(out)

    def decode(
        self, symbols: Sequence[Optional[int]], message_bits: int
    ) -> np.ndarray:
        """Decode bit decisions back into the original message.

        ``symbols`` holds one entry per coded bit: 0, 1, or ``None`` for
        an erasure (a DSSS block whose correlation fell below ``tau``).
        ``message_bits`` is the original (pre-ECC) message length.  Any
        other entry (``2``, ``0.5``, ``True``) is a
        :class:`~repro.errors.ConfigurationError` naming its bit index.
        Raises :class:`repro.errors.DecodeError` when corruption exceeds
        the code's capability.
        """
        expected = self.encoded_bits(message_bits)
        decisions = list(symbols)
        if len(decisions) != expected:
            raise ConfigurationError(
                f"expected {expected} coded bits, got {len(decisions)}"
            )
        for index, decision in enumerate(decisions):
            if decision is not None and (
                isinstance(decision, bool)
                or not isinstance(decision, numbers.Integral)
                or decision not in (0, 1)
            ):
                raise ConfigurationError(
                    f"decision at bit {index} is {decision!r}; "
                    f"expected 0, 1 or None"
                )
        data_symbols = math.ceil(message_bits / self._SYMBOL_BITS)
        decoded_symbols: List[int] = []
        bit_offset = 0
        for k in self._chunk_sizes(data_symbols):
            n_parity = self.parity_symbols(k)
            chunk_bits = (k + n_parity) * self._SYMBOL_BITS
            chunk = decisions[bit_offset : bit_offset + chunk_bits]
            bit_offset += chunk_bits
            word, erasures = self._lift(chunk)
            try:
                decoded_symbols.extend(
                    self._rs(n_parity).decode(word, erasures)
                )
            except EccDecodeError as exc:
                raise DecodeError(
                    f"message unrecoverable: {exc}"
                ) from exc
        bits = np.concatenate(
            [self._symbol_bits(sym) for sym in decoded_symbols]
        )
        return bits[:message_bits].astype(np.int8)

    def tolerated_burst_bits(self, message_bits: int) -> int:
        """Longest contiguous erased burst guaranteed decodable.

        A burst of ``b`` coded bits inside one chunk erases at most
        ``ceil(b / 8) + 1`` symbols, which must stay within the chunk's
        parity budget; the bound below is conservative across chunk
        boundaries.
        """
        _check_message_bits(message_bits)
        data_symbols = math.ceil(message_bits / self._SYMBOL_BITS)
        worst = None
        for k in self._chunk_sizes(data_symbols):
            budget = self.parity_symbols(k)
            burst = max(0, (budget - 1) * self._SYMBOL_BITS)
            worst = burst if worst is None else min(worst, burst)
        return int(worst or 0)

    # ------------------------------------------------------------------

    def _pack(self, bits: np.ndarray) -> List[int]:
        """Pack bits (MSB first) into GF(256) symbols, zero-padded."""
        pad = (-bits.size) % self._SYMBOL_BITS
        padded = np.concatenate([bits, np.zeros(pad, dtype=np.int8)])
        return np.packbits(padded.astype(np.uint8)).tolist()

    @staticmethod
    def _unpack(symbols: Sequence[int]) -> np.ndarray:
        return np.unpackbits(
            np.asarray(symbols, dtype=np.uint8)
        ).astype(np.int8)

    def _symbol_bits(self, symbol: int) -> np.ndarray:
        return np.unpackbits(
            np.asarray([symbol], dtype=np.uint8)
        ).astype(np.int8)

    def _lift(
        self, decisions: Sequence[Optional[int]]
    ) -> "tuple[List[int], List[int]]":
        """Group bit decisions into symbols; any ``None`` bit erases its
        symbol."""
        word: List[int] = []
        erasures: List[int] = []
        for start in range(0, len(decisions), self._SYMBOL_BITS):
            group = decisions[start : start + self._SYMBOL_BITS]
            if any(d is None for d in group):
                erasures.append(start // self._SYMBOL_BITS)
                word.append(0)
            else:
                value = 0
                for d in group:
                    value = (value << 1) | int(d)
                word.append(value)
        return word, erasures

    def __repr__(self) -> str:
        return f"ExpansionCodec(mu={self._mu})"
