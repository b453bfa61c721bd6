"""Reference implementations kept only as test oracles.

The runtime has one correlation engine
(:class:`~repro.dsss.engine.BatchedCorrelationEngine`) and one
Reed-Solomon codec (:class:`~repro.ecc.reed_solomon.ReedSolomonCodec`).
Their slow, obviously-correct references live here so the equivalence
tests can check the fast paths bit for bit and the speed-up benchmarks
have an honest baseline.  Only ``tests/`` and ``benchmarks/``
import this module; no runtime code path loads it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.dsss.correlator import correlate_many
from repro.dsss.engine import CorrelationEngine
from repro.ecc.reed_solomon import ReedSolomonCodec
from repro.errors import ConfigurationError
from repro.obs import names as _names

__all__ = ["NaiveCorrelationEngine", "ScalarReedSolomonCodec"]


class NaiveCorrelationEngine(CorrelationEngine):
    """The textbook per-position correlation loop.

    Deliberately keeps the unbatched cost profile — one
    :func:`~repro.dsss.correlator.correlate_many` call (which re-stacks
    the code matrix) per position — so it serves both as the
    equivalence reference and as the benchmark baseline.
    """

    def correlate_block(
        self, buffer: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        self._check_range(buffer, start, stop)
        out = np.empty((stop - start, self.n_codes), dtype=np.float64)
        for i, position in enumerate(range(start, stop)):
            out[i] = correlate_many(buffer, self._codes, position)
        return out


class ScalarReedSolomonCodec(ReedSolomonCodec):
    """A Reed-Solomon codec that runs every word through the scalar
    pipeline.

    Same symbols, exceptions and ``ecc.symbols_*`` counts as
    :class:`~repro.ecc.reed_solomon.ReedSolomonCodec`, with no NumPy
    kernel on any path: batches validate, encode and decode one word
    at a time.
    """

    def encode(self, message: Sequence[int]) -> List[int]:
        message = list(message)
        self._check_encodable(message)
        self._count(_names.ECC_SYMBOLS_ENCODED, len(message) + self._n_parity)
        return self._encode_scalar(message)

    def encode_batch(
        self, messages: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        messages = [list(m) for m in messages]
        if not messages:
            return []
        lengths = {len(m) for m in messages}
        if len(lengths) != 1:
            raise ConfigurationError(
                f"encode_batch needs equal-length messages, got "
                f"lengths {sorted(lengths)}"
            )
        for message in messages:
            self._check_encodable(message)
        total = len(messages) * (len(messages[0]) + self._n_parity)
        self._count(_names.ECC_SYMBOLS_ENCODED, total)
        return [self._encode_scalar(m) for m in messages]

    def decode(
        self,
        received: Sequence[int],
        erasure_positions: Sequence[int] = (),
    ) -> List[int]:
        received = list(received)
        self._check_decodable(received, erasure_positions)
        self._count(_names.ECC_SYMBOLS_DECODED, len(received))
        return self._decode_scalar(received, erasure_positions)

    def decode_batch(
        self,
        words: Sequence[Sequence[int]],
        erasure_lists: Optional[Sequence[Sequence[int]]] = None,
    ) -> List[List[int]]:
        words = list(words)
        if not words:
            return []
        if erasure_lists is None:
            erasure_lists = [()] * len(words)
        if len(erasure_lists) != len(words):
            raise ConfigurationError(
                f"{len(erasure_lists)} erasure lists for "
                f"{len(words)} words"
            )
        lengths = {len(w) for w in words}
        if len(lengths) != 1:
            raise ConfigurationError(
                f"decode_batch needs equal-length words, got "
                f"lengths {sorted(lengths)}"
            )
        self._count(_names.ECC_SYMBOLS_DECODED, len(words) * len(words[0]))
        for word, erasures in zip(words, erasure_lists):
            self._check_decodable(list(word), erasures)
        return [
            self._decode_scalar(word, erasures)
            for word, erasures in zip(words, erasure_lists)
        ]
