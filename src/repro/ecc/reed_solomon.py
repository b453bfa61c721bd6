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

Arithmetic runs on NumPy table-lookup kernels
(:mod:`repro.ecc.gf256_vec`) wherever they pay: long words use batched
syndrome evaluation and a batched LFSR encoder, and
:meth:`~ReedSolomonCodec.encode_batch` /
:meth:`~ReedSolomonCodec.decode_batch` amortize the kernels across many
words at once — the shape of the Monte Carlo jammed-HELLO workload,
where thousands of short words decode per sweep point.  Decoding
exploits the fact that jamming mostly produces erasures: a word whose
*folded* (Forney) syndromes vanish has an erasure-only solution and
takes a fully batched locator/Forney path; any word with actual errors,
and any single word under 64 symbols, runs the per-symbol scalar
pipeline above, so results — including every ``EccDecodeError`` past
the ``2e + f`` budget — are bit-identical to the always-scalar test
oracle :class:`repro.oracles.ScalarReedSolomonCodec`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ecc.gf256 import GF256
from repro.errors import ConfigurationError, EccDecodeError
from repro.obs import current as _metrics
from repro.obs import names as _names

__all__ = ["ReedSolomonCodec"]

# Below this word length the numpy kernel overhead exceeds the scalar
# loop cost for a *single* word (measured crossover near 40 symbols);
# batch calls always vectorize since the overhead amortizes.
_VEC_MIN_SYMBOLS = 64


class ReedSolomonCodec:
    """Systematic Reed-Solomon codec with errors-and-erasures decoding.

    Parameters
    ----------
    n_parity:
        Number of parity symbols (``n - k``).
    """

    def __init__(self, n_parity: int) -> None:
        if not 0 < n_parity < GF256.ORDER - 1:
            raise ConfigurationError(
                f"n_parity must be in [1, {GF256.ORDER - 2}], got {n_parity}"
            )
        self._n_parity = int(n_parity)
        self._generator = self._build_generator(self._n_parity)
        self._generator_arr = np.asarray(self._generator, dtype=np.uint8)

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

        ``message`` is a sequence of symbols in [0, 255] whose length plus
        ``n_parity`` must not exceed 255.
        """
        message = list(message)
        self._check_encodable(message)
        self._count(_names.ECC_SYMBOLS_ENCODED, len(message) + self._n_parity)
        if len(message) >= _VEC_MIN_SYMBOLS:
            return self._encode_rows(
                np.asarray([message], dtype=np.uint8)
            )[0]
        return self._encode_scalar(message)

    def encode_batch(
        self, messages: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """Encode a batch of equal-length messages.

        Equivalent to ``[self.encode(m) for m in messages]`` but the
        whole batch runs through one batched LFSR, one feedback step per
        data symbol.
        """
        messages = [list(m) for m in messages]
        if not messages:
            return []
        lengths = {len(m) for m in messages}
        if len(lengths) != 1:
            raise ConfigurationError(
                f"encode_batch needs equal-length messages, got "
                f"lengths {sorted(lengths)}"
            )
        # Vectorized bounds check; a failing batch re-raises from the
        # scalar checker on the offending message so the exception is
        # identical to a per-message loop.  Length/empty checks are
        # batch-uniform, so word 0 stands in for all.
        self._check_encodable(messages[0])
        bad = self._first_bad_row(messages)
        if bad is not None:
            self._check_encodable(messages[bad])
        total = len(messages) * (len(messages[0]) + self._n_parity)
        self._count(_names.ECC_SYMBOLS_ENCODED, total)
        return self._encode_rows(np.asarray(messages, dtype=np.uint8))

    def _check_encodable(self, message: List[int]) -> None:
        self._check_symbols("message", message)
        if len(message) + self._n_parity > self.max_codeword_length():
            raise ConfigurationError(
                f"codeword of {len(message) + self._n_parity} symbols "
                f"exceeds the RS limit of {self.max_codeword_length()}"
            )
        if not message:
            raise ConfigurationError("cannot encode an empty message")

    def _encode_scalar(self, message: List[int]) -> List[int]:
        padded = message + [0] * self._n_parity
        _, remainder = GF256.poly_divmod(padded, self._generator)
        parity = [0] * (self._n_parity - len(remainder)) + list(remainder)
        return message + parity

    def _encode_rows(self, rows: np.ndarray) -> List[List[int]]:
        from repro.ecc.gf256_vec import rs_encode_batch

        parity = rs_encode_batch(rows, self._generator_arr)
        return np.hstack([rows, parity]).tolist()

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(
        self,
        received: Sequence[int],
        erasure_positions: Sequence[int] = (),
    ) -> List[int]:
        """Recover the data symbols from a corrupted codeword.

        ``erasure_positions`` are indices into ``received`` whose symbols
        are known to be unreliable (their values are still used as a
        starting point; any value works).  Raises
        :class:`repro.errors.EccDecodeError` when the corruption exceeds
        the code's capability.
        """
        received = list(received)
        self._check_decodable(received, erasure_positions)
        self._count(_names.ECC_SYMBOLS_DECODED, len(received))
        if len(received) >= _VEC_MIN_SYMBOLS:
            return self._decode_rows(
                [received], [sorted(set(int(p) for p in erasure_positions))]
            )[0]
        return self._decode_scalar(received, erasure_positions)

    def decode_batch(
        self,
        words: Sequence[Sequence[int]],
        erasure_lists: Optional[Sequence[Sequence[int]]] = None,
    ) -> List[List[int]]:
        """Decode a batch of equal-length received words.

        Equivalent to ``[self.decode(w, e) for w, e in zip(...)]``,
        including which :class:`~repro.errors.EccDecodeError` is raised
        first when several words are unrecoverable.  Syndrome
        evaluation, erasure folding, and the erasure-only correction
        path run batched across all words; only words containing actual
        symbol *errors* drop to the scalar reference pipeline.
        """
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
        return self._decode_rows(words, erasure_lists)

    @staticmethod
    def _first_bad_row(rows: Sequence[Sequence[int]]) -> Optional[int]:
        """Index of the first row holding a symbol outside [0, 255]."""
        try:
            arr = np.asarray(rows, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            for index, row in enumerate(rows):
                for symbol in row:
                    if not 0 <= symbol < GF256.ORDER:
                        return index
            return None
        row_bad = ((arr < 0) | (arr >= GF256.ORDER)).any(axis=1)
        if row_bad.any():
            return int(np.flatnonzero(row_bad)[0])
        return None

    def _check_decodable(
        self, received: List[int], erasure_positions: Sequence[int]
    ) -> None:
        self._check_symbols("received", received)
        if len(received) <= self._n_parity:
            raise ConfigurationError(
                f"received word of {len(received)} symbols cannot carry "
                f"{self._n_parity} parity symbols"
            )
        for position in erasure_positions:
            if not 0 <= position < len(received):
                raise ConfigurationError(
                    f"erasure position {position} out of range"
                )
        if len(set(erasure_positions)) > self._n_parity:
            raise EccDecodeError(
                f"{len(set(erasure_positions))} erasures exceed "
                f"{self._n_parity} parity symbols"
            )

    def _decode_scalar(
        self,
        received: Sequence[int],
        erasure_positions: Sequence[int],
    ) -> List[int]:
        """The reference errors-and-erasures pipeline."""
        word = list(received)
        erasures = sorted(set(int(p) for p in erasure_positions))
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

    def _decode_rows(
        self,
        words: Sequence[Sequence[int]],
        erasure_lists: Sequence[Sequence[int]],
    ) -> List[List[int]]:
        """The vectorized batch pipeline over raw (unvalidated) inputs.

        Validation, erasure dedup/sorting, and the padded position
        table are all built in one vectorized pass.  Clean words
        return immediately from the batched syndrome pass;
        erasure-only words (vanishing folded syndromes) go through the
        batched locator/Forney path; anything else falls back to the
        scalar reference in ascending word order, so the first
        unrecoverable word raises exactly as a sequential loop would.
        """
        from repro.ecc import gf256_vec as vec

        n_parity = self._n_parity
        batch = len(words)
        length = len(words[0])
        k = length - n_parity

        # --- validation, raising exactly as a per-word scalar loop
        # would.  Word 0 is checked fully up front (the word-length
        # check is batch-uniform, so it stands in for all); the rest
        # run vectorized, and the first word failing any check
        # re-raises through the scalar checker for the identical
        # exception.
        self._check_decodable(list(words[0]), erasure_lists[0])
        try:
            arr64 = np.asarray(words, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            # Exotic symbol types numpy cannot convert: the scalar
            # reference handles (or rejects) them one word at a time.
            for word, erasures in zip(words, erasure_lists):
                self._check_decodable(list(word), erasures)
            return [
                self._decode_scalar(word, erasures)
                for word, erasures in zip(words, erasure_lists)
            ]
        fail: Optional[int] = None
        row_bad = ((arr64 < 0) | (arr64 >= GF256.ORDER)).any(axis=1)
        if row_bad.any():
            fail = int(np.flatnonzero(row_bad)[0])
        counts = np.asarray(
            [len(erasures) for erasures in erasure_lists], dtype=np.int64
        )
        total = int(counts.sum())
        flat = np.asarray(
            [int(p) for e in erasure_lists for p in e], dtype=np.int64
        )
        owner = np.repeat(np.arange(batch), counts)
        suspects = []
        out_of_range = (flat < 0) | (flat >= length)
        if out_of_range.any():
            suspects.extend(owner[out_of_range].tolist())
        # A long raw list only fails if its *distinct* positions
        # exceed the budget; confirm per suspect, they are rare.
        suspects.extend(
            index
            for index in np.flatnonzero(counts > n_parity).tolist()
            if len(set(erasure_lists[index])) > n_parity
        )
        if suspects and (fail is None or min(suspects) < fail):
            fail = min(suspects)
        if fail is not None:
            self._check_decodable(
                list(words[fail]), erasure_lists[fail]
            )

        # --- ragged erasure lists -> left-aligned sorted distinct
        # positions padded with the sentinel ``length`` (sorts last).
        f_raw = int(counts.max()) if batch else 0
        if f_raw:
            positions = np.full((batch, f_raw), length, dtype=np.int64)
            col = np.arange(total) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            positions[owner, col] = flat
            positions.sort(axis=1)
            duplicate = np.zeros_like(positions, dtype=bool)
            duplicate[:, 1:] = (
                positions[:, 1:] == positions[:, :-1]
            ) & (positions[:, 1:] < length)
            if duplicate.any():
                positions[duplicate] = length
                positions.sort(axis=1)
            pad = positions >= length
            f_counts = (~pad).sum(axis=1)
            f_max = int(f_counts.max())
            positions = np.where(pad, 0, positions)[:, :f_max]
            pad = pad[:, :f_max]
        else:
            f_max = 0
            f_counts = counts
            positions = np.zeros((batch, 0), dtype=np.int64)
            pad = np.zeros((batch, 0), dtype=bool)

        arr = arr64.astype(np.uint8)
        syndromes = vec.syndromes_batch(arr, n_parity)
        clean = ~syndromes.any(axis=1)
        # Output rows default to the received data symbols — exactly
        # right for clean words; corrected and fallback rows overwrite.
        out = arr[:, :k].copy()

        fallback: List[int] = []
        candidates = ~clean & (f_counts > 0)
        # Dirty words with no declared erasures hold genuine errors:
        # straight to the scalar reference.
        fallback.extend(
            np.flatnonzero(~clean & (f_counts == 0)).tolist()
        )
        if candidates.any():
            rows = np.flatnonzero(candidates)
            sub_counts = f_counts[rows]
            sub_positions = positions[rows]
            sub_pad = pad[rows]
            # X_j = alpha^(L - 1 - position); padded slots use root 0
            # (identity locator factors, masked out of Forney).
            roots = np.where(
                sub_pad,
                np.uint8(0),
                vec.gf_pow_alpha(length - 1 - sub_positions),
            )
            # Shared fold loop: each row's exact erasure-only test is
            # recorded at its own fold depth f (zero-root folds past a
            # row's last real erasure merely shift its folded
            # syndromes, so the test must be read off at depth f).
            folded = syndromes[rows]
            erasure_only = np.zeros(rows.size, dtype=bool)
            for t in range(f_max + 1):
                done = sub_counts == t
                if done.any():
                    erasure_only[done] = ~folded[done].any(axis=1)
                if t < f_max:
                    x = roots[:, t]
                    folded = vec.gf_mul(folded[:, :-1], x[:, None]) ^ (
                        folded[:, 1:]
                    )
            fallback.extend(rows[~erasure_only].tolist())
            if erasure_only.any():
                sel = np.flatnonzero(erasure_only)
                sub_rows = rows[sel]
                corrected, solved = self._solve_erasures(
                    vec, arr[sub_rows], syndromes[sub_rows],
                    roots[sel], sub_positions[sel], sub_pad[sel],
                )
                out[sub_rows[solved]] = corrected[solved][:, :k]
                # The batched path could not certify these words; the
                # scalar reference gets the final say.
                fallback.extend(sub_rows[~solved].tolist())

        results = out.tolist()
        for index in sorted(fallback):
            results[index] = self._decode_scalar(
                words[index], erasure_lists[index]
            )
        return results

    def _solve_erasures(
        self,
        vec: np.ndarray,
        rows: np.ndarray,
        syndromes: np.ndarray,
        roots: np.ndarray,
        positions: np.ndarray,
        pad: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched erasure-only Forney correction.

        ``rows`` is ``(B, L)``; ``roots``, ``positions``, and the
        boolean ``pad`` mask are ``(B, f_max)`` — slots flagged in
        ``pad`` are zero-root padding for words with fewer erasures
        and contribute identity locator factors and no correction.
        Returns the corrected words and a boolean mask of which were
        verified (re-computed syndromes all zero); unverified words go
        back to the scalar reference so its exception fires.
        """
        n_parity = self._n_parity
        batch, f_max = roots.shape
        locators = vec.erasure_locators_batch(roots)  # (B, f_max + 1)
        # Omega(x) = S(x) * Lambda(x) mod x^n_parity, with S written
        # highest-degree-first exactly as the scalar pipeline does;
        # leading zero locator columns of padded words contribute
        # nothing, so the low-order n_parity product columns match the
        # scalar product exactly.
        synd_rev = syndromes[:, ::-1]
        product = np.zeros((batch, n_parity + f_max), dtype=np.uint8)
        for t in range(f_max + 1):
            product[:, t : t + n_parity] ^= vec.gf_mul(
                synd_rev, locators[:, t][:, None]
            )
        omega = product[:, -n_parity:]
        # Formal derivative: odd-degree coefficients survive (column
        # degree is position-determined, so one mask fits all words).
        degrees = np.arange(f_max, 0, -1)
        derivative = np.where(
            (degrees % 2 == 1)[None, :], locators[:, :-1], np.uint8(0)
        )
        # Horner-evaluate Omega and Lambda' at every word's inverse
        # roots simultaneously: (B, f_max) points per (B, D) rows.
        x_inverse = vec.gf_inv(roots)
        numerators = np.zeros((batch, f_max), dtype=np.uint8)
        for t in range(omega.shape[1]):
            numerators = vec.gf_mul(numerators, x_inverse) ^ (
                omega[:, t][:, None]
            )
        denominators = np.zeros((batch, f_max), dtype=np.uint8)
        for t in range(derivative.shape[1]):
            denominators = vec.gf_mul(denominators, x_inverse) ^ (
                derivative[:, t][:, None]
            )
        ok = np.ones(batch, dtype=bool)
        zero_den = (denominators == 0) & ~pad
        if zero_den.any():
            # Cannot happen for distinct erasure roots; route the
            # affected words through the scalar reference anyway.
            ok &= ~zero_den.any(axis=1)
        denominators = np.where(
            denominators == 0, np.uint8(1), denominators
        )
        magnitudes = np.where(
            pad, np.uint8(0), vec.gf_div(numerators, denominators)
        )
        corrected = rows.copy()
        # One slot at a time: padded slots may alias a real erasure
        # position in the same row (their magnitude is 0, but numpy
        # buffers duplicate fancy indices, dropping updates), so each
        # XOR-assign must touch every row at most once.
        word_index = np.arange(batch)
        for j in range(f_max):
            corrected[word_index, positions[:, j]] ^= magnitudes[:, j]
        residual = vec.syndromes_batch(corrected, n_parity)
        ok &= ~residual.any(axis=1)
        return corrected, ok

    @staticmethod
    def _check_symbols(name: str, symbols: Sequence[int]) -> None:
        for symbol in symbols:
            if not 0 <= symbol < GF256.ORDER:
                raise ConfigurationError(
                    f"{name} contains symbol {symbol} outside [0, 255]"
                )

    def _count(self, name: str, amount: int) -> None:
        registry = _metrics()
        if registry.enabled:
            registry.inc(name, amount)

    # ------------------------------------------------------------------
    # Scalar decoding pipeline internals (the reference)
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
