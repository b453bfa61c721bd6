"""A complete Reed-Solomon codec over GF(2^8).

Systematic RS(n, k): ``k`` data symbols followed by ``n - k`` parity
symbols obtained as the remainder of dividing by the generator polynomial
``g(x) = (x - a)(x - a^2)...(x - a^(n-k))``.  Decoding handles both
*errors* (unknown positions) and *erasures* (known positions) using the
classical pipeline:

1. syndrome computation,
2. Forney syndromes to fold in declared erasures,
3. Berlekamp-Massey to find the error-locator polynomial,
4. Chien search for error positions,
5. Forney's algorithm for error magnitudes.

An RS(n, k) code corrects ``e`` errors and ``f`` erasures whenever
``2e + f <= n - k``.  The protocol layer mostly sees erasures (a jammed
DSSS block fails the correlation threshold and is flagged), which is why
the paper's expansion factor ``1 + mu`` maps to a tolerated erasure
fraction of ``mu / (1 + mu)``.

Symbols and erasure positions must be integers (Python or NumPy, not
``bool``); anything else is a :class:`~repro.errors.ConfigurationError`
at the boundary rather than a truncated or misread value.
"""

from __future__ import annotations

import numbers
from typing import List, Sequence, Tuple

from repro.ecc.gf256 import GF256
from repro.errors import ConfigurationError, EccDecodeError
from repro.obs import current as _metrics
from repro.obs import names as _names

__all__ = ["ReedSolomonCodec"]


def _integer(name: str, value: int) -> int:
    """``value`` as a Python int; raises for a non-integer or ``bool``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


class ReedSolomonCodec:
    """Systematic Reed-Solomon codec with errors-and-erasures decoding.

    Parameters
    ----------
    n_parity:
        Number of parity symbols (``n - k``).
    """

    def __init__(self, n_parity: int) -> None:
        n_parity = _integer("n_parity", n_parity)
        if not 0 < n_parity < GF256.ORDER - 1:
            raise ConfigurationError(
                f"n_parity must be in [1, {GF256.ORDER - 2}], got {n_parity}"
            )
        self._n_parity = n_parity
        self._generator = self._build_generator(self._n_parity)

    @staticmethod
    def _build_generator(n_parity: int) -> List[int]:
        """Generator polynomial with roots a^1 .. a^n_parity."""
        generator = [1]
        for i in range(1, n_parity + 1):
            generator = GF256.poly_multiply(
                generator, [1, GF256.power(GF256.GENERATOR, i)]
            )
        return generator

    @property
    def n_parity(self) -> int:
        """Number of parity symbols appended to each message."""
        return self._n_parity

    def max_codeword_length(self) -> int:
        """Longest legal codeword (255 for GF(2^8))."""
        return GF256.ORDER - 1

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, message: Sequence[int]) -> List[int]:
        """Append parity symbols to ``message``.

        ``message`` is a sequence of integer symbols in [0, 255] whose
        length plus ``n_parity`` must not exceed 255.
        """
        message = self._symbols("message", message)
        if len(message) + self._n_parity > self.max_codeword_length():
            raise ConfigurationError(
                f"codeword of {len(message) + self._n_parity} symbols "
                f"exceeds the RS limit of {self.max_codeword_length()}"
            )
        if not message:
            raise ConfigurationError("cannot encode an empty message")
        self._count(_names.ECC_SYMBOLS_ENCODED, len(message) + self._n_parity)
        padded = message + [0] * self._n_parity
        _, remainder = GF256.poly_divmod(padded, self._generator)
        parity = [0] * (self._n_parity - len(remainder)) + list(remainder)
        return message + parity

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(
        self,
        received: Sequence[int],
        erasure_positions: Sequence[int] = (),
    ) -> List[int]:
        """Recover the data symbols from a corrupted codeword.

        ``erasure_positions`` are integer indices into ``received`` whose
        symbols are known to be unreliable (their values are still used
        as a starting point; any value works).  Raises
        :class:`repro.errors.EccDecodeError` when the corruption exceeds
        the code's capability.
        """
        word = self._symbols("received", received)
        if len(word) <= self._n_parity:
            raise ConfigurationError(
                f"received word of {len(word)} symbols cannot carry "
                f"{self._n_parity} parity symbols"
            )
        erasures = sorted(
            {_integer("erasure position", p) for p in erasure_positions}
        )
        for position in erasures:
            if not 0 <= position < len(word):
                raise ConfigurationError(
                    f"erasure position {position} out of range"
                )
        if len(erasures) > self._n_parity:
            raise EccDecodeError(
                f"{len(erasures)} erasures exceed "
                f"{self._n_parity} parity symbols"
            )
        self._count(_names.ECC_SYMBOLS_DECODED, len(word))
        syndromes = self._syndromes(word)
        if all(s == 0 for s in syndromes):
            return word[: len(word) - self._n_parity]

        erasure_locator = self._erasure_locator(erasures, len(word))
        forney_syndromes = self._forney_syndromes(
            syndromes, erasures, len(word)
        )
        error_locator = self._berlekamp_massey(
            forney_syndromes, len(erasures)
        )
        error_positions = self._chien_search(error_locator, len(word))
        all_positions = sorted(set(error_positions) | set(erasures))
        if 2 * len(error_positions) + len(erasures) > self._n_parity:
            raise EccDecodeError(
                f"{len(error_positions)} errors + {len(erasures)} erasures "
                f"exceed capability of {self._n_parity} parity symbols"
            )
        combined_locator = GF256.poly_multiply(
            error_locator, erasure_locator
        )
        corrected = self._forney_correct(
            word, syndromes, combined_locator, all_positions
        )
        # Verify the correction actually produced a codeword.
        if any(s != 0 for s in self._syndromes(corrected)):
            raise EccDecodeError("correction failed: residual syndromes")
        return corrected[: len(word) - self._n_parity]

    @staticmethod
    def _symbols(name: str, symbols: Sequence[int]) -> List[int]:
        out = [_integer(f"{name} symbol", symbol) for symbol in symbols]
        for symbol in out:
            if not 0 <= symbol < GF256.ORDER:
                raise ConfigurationError(
                    f"{name} contains symbol {symbol} outside [0, 255]"
                )
        return out

    def _count(self, name: str, amount: int) -> None:
        registry = _metrics()
        if registry.enabled:
            registry.inc(name, amount)

    # ------------------------------------------------------------------
    # Decoding pipeline internals
    # ------------------------------------------------------------------

    def _syndromes(self, word: Sequence[int]) -> List[int]:
        """Evaluate the received polynomial at the generator's roots."""
        return [
            GF256.poly_eval(word, GF256.power(GF256.GENERATOR, i))
            for i in range(1, self._n_parity + 1)
        ]

    @staticmethod
    def _erasure_locator(
        erasures: Sequence[int], length: int
    ) -> List[int]:
        """Locator polynomial with roots at the erased positions."""
        locator = [1]
        for position in erasures:
            exponent = length - 1 - position
            # Factor (1 - X_j x) with X_j = alpha^exponent, written
            # highest-degree-first; its root is X_j^{-1}, matching the
            # Chien search convention.
            locator = GF256.poly_multiply(
                locator, [GF256.power(GF256.GENERATOR, exponent), 1]
            )
        return locator

    def _forney_syndromes(
        self, syndromes: Sequence[int], erasures: Sequence[int], length: int
    ) -> List[int]:
        """Fold erasure information into the syndromes.

        The resulting (shorter-effective) syndromes describe only the
        unknown-position errors, so Berlekamp-Massey can run unmodified.
        """
        folded = list(syndromes)
        for position in erasures:
            x = GF256.power(GF256.GENERATOR, length - 1 - position)
            for i in range(len(folded) - 1):
                folded[i] = GF256.multiply(folded[i], x) ^ folded[i + 1]
            folded.pop()
        return folded

    def _berlekamp_massey(
        self, syndromes: Sequence[int], n_erasures: int
    ) -> List[int]:
        """Find the minimal error-locator polynomial (lowest degree first
        internally, returned highest degree first)."""
        error_locator = [1]
        previous_locator = [1]
        for i, syndrome in enumerate(syndromes):
            previous_locator.append(0)
            delta = syndrome
            for j in range(1, len(error_locator)):
                delta ^= GF256.multiply(
                    error_locator[len(error_locator) - 1 - j],
                    syndromes[i - j],
                )
            if delta != 0:
                if len(previous_locator) > len(error_locator):
                    new_locator = GF256.poly_scale(previous_locator, delta)
                    previous_locator = GF256.poly_scale(
                        error_locator, GF256.inverse(delta)
                    )
                    error_locator = new_locator
                error_locator = GF256.poly_add(
                    error_locator, GF256.poly_scale(previous_locator, delta)
                )
        while error_locator and error_locator[0] == 0:
            error_locator = error_locator[1:]
        n_errors = len(error_locator) - 1
        if 2 * n_errors + n_erasures > self._n_parity:
            raise EccDecodeError(
                "error locator degree exceeds correction capability"
            )
        return error_locator

    def _chien_search(
        self, error_locator: Sequence[int], length: int
    ) -> List[int]:
        """Find codeword positions whose locator evaluation is zero."""
        n_errors = len(error_locator) - 1
        if n_errors == 0:
            return []
        positions = []
        for position in range(length):
            exponent = length - 1 - position
            x_inverse = GF256.power(
                GF256.GENERATOR, -exponent
            ) if exponent else 1
            if GF256.poly_eval(error_locator, x_inverse) == 0:
                positions.append(position)
        if len(positions) != n_errors:
            raise EccDecodeError(
                f"Chien search found {len(positions)} roots for a degree-"
                f"{n_errors} locator; word is uncorrectable"
            )
        return positions

    def _forney_correct(
        self,
        word: Sequence[int],
        syndromes: Sequence[int],
        locator: Sequence[int],
        positions: Sequence[int],
    ) -> List[int]:
        """Compute error magnitudes with Forney's algorithm and fix them."""
        length = len(word)
        # Error evaluator: Omega(x) = S(x) * Lambda(x) mod x^(n_parity).
        syndrome_poly = list(reversed(list(syndromes)))
        product = GF256.poly_multiply(syndrome_poly, locator)
        omega = product[-self._n_parity:] if len(
            product
        ) >= self._n_parity else product
        locator_derivative = GF256.poly_derivative(locator)

        corrected = list(word)
        for position in positions:
            exponent = length - 1 - position
            x = GF256.power(GF256.GENERATOR, exponent)
            x_inverse = GF256.inverse(x)
            numerator = GF256.poly_eval(omega, x_inverse)
            denominator = GF256.poly_eval(locator_derivative, x_inverse)
            if denominator == 0:
                raise EccDecodeError(
                    "Forney denominator vanished; word is uncorrectable"
                )
            # With generator roots alpha^1..alpha^np and the syndrome
            # polynomial S(x) = S_1 + S_2 x + ..., Forney's formula is
            # Y_i = Omega(X_i^{-1}) / Lambda'(X_i^{-1}) with no extra
            # X_i factor.
            magnitude = GF256.divide(numerator, denominator)
            corrected[position] ^= magnitude
        return corrected

    def correction_capability(self) -> Tuple[int, int]:
        """Return ``(max_errors, max_erasures)`` as independent maxima."""
        return self._n_parity // 2, self._n_parity

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_parity={self._n_parity})"
