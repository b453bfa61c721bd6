"""Pair-level PHY backends for the D-NDP Monte Carlo (the tentpole knob).

The default experiment model (``phy_backend="message"``) decides every
sub-session with the paper's per-*message* Bernoulli outcomes
(:class:`repro.adversary.jammer.JammingModel`).  This module adds the two
finer-grained backends below it:

- ``"chip"`` — the reference: every message is actually spread, placed on
  a :class:`~repro.dsss.channel.ChipChannel` at a random chip offset,
  overlaid with the jammer's same-code burst, rendered (optionally with
  AWGN), and recovered with the real
  :class:`~repro.dsss.synchronizer.SlidingWindowSynchronizer`;

- ``"chipless"`` — the analytic backend: the *same* outcome is computed
  in closed form from correlation statistics, without materialising a
  single chip.  With the legitimate NRZ bit ``b``, a same-code jam bit
  ``J`` at relative amplitude ``a``, and AWGN of per-chip sigma
  ``noise_std``, the normalized block correlation is exactly

      corr = b + a * J + z,   z ~ N(0, noise_std / sqrt(N)),

  independent per bit — so acquisition (the first ``confirm_blocks``
  correlations all crossing ``tau``) and the decode budget (Reed-Solomon
  style ``2 * errors + erasures <= coded - plain``) follow from per-bit
  draws, no waveforms needed.

Both backends consume the *same* rng stream (offset draw, payload bits,
jam-targeting coin, jam bits — in that order, per message); noise draws
are the only divergence point, so at ``noise_std = 0`` the two backends
produce bit-for-bit identical outcomes from a shared generator, exactly
the ``compute_backend`` stream contract.  With noise they are
distribution-identical, which ``tests/experiments`` checks statistically.

:class:`ChiplessModel` is the batched, draw-free form of the chipless
backend: per-message success *probabilities* from the same per-bit
statistics, composed into one success probability per (pair, code-mix).
The field-level sweep in :mod:`repro.experiments.runner` uses it to
collapse the whole per-pair D-NDP loop into a handful of vectorised ops.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.adversary.jammer import JammerStrategy, JammingModel
from repro.dsss.channel import ChipChannel
from repro.dsss.spread_code import CodePool
from repro.dsss.synchronizer import SlidingWindowSynchronizer
from repro.errors import ConfigurationError
from repro.obs import current as _metrics
from repro.obs import names as _names

__all__ = [
    "PHY_BACKENDS",
    "PairPHY",
    "ChipPairPHY",
    "ChiplessPairPHY",
    "ChiplessModel",
    "make_pair_phy",
    "message_success_probability",
]

#: The experiment-level PHY knob values.  ``"message"`` keeps the
#: original per-message Bernoulli model (no :class:`PairPHY` involved);
#: the other two are implemented here.
PHY_BACKENDS = ("message", "chip", "chipless")

#: Blocks that must all cross ``tau`` for an acquisition lock — the
#: synchronizer's default, shared so chip and chipless agree.
CONFIRM_BLOCKS = 3

#: Message kinds of one D-NDP sub-session, in protocol order.
_HELLO = "hello"
_CONFIRM = "confirm"
_AUTH = "auth"
_BURST_KINDS = (_CONFIRM, _AUTH, _AUTH)


def _identify_fraction(mu: float) -> float:
    """Fraction of a message a reactive jammer spends identifying the
    code before jamming the tail — half the ``1 / (1 + mu)`` deadline,
    same capable-jammer model as
    :class:`repro.adversary.jammer.MediumJammer`."""
    return 0.5 / (1.0 + mu)


class PairPHY:
    """Shared jam geometry + rng stream contract of the two backends.

    Parameters
    ----------
    jamming:
        The adversary model (strategy, compromised codes, budget).
    code_length:
        Chips per code (the paper's ``N``).
    tau:
        Correlation decision threshold.
    hello_shape, auth_shape:
        ``(coded_bits, plain_bits)`` of the HELLO/CONFIRM frames and of
        the authentication frames.
    noise_std:
        Per-chip AWGN sigma on the channel (0 = noiseless).
    jam_amplitude:
        Jam power relative to the legitimate signal.  2.0 (default
        elsewhere) makes a disagreeing jam bit *flip* the block; 1.0
        cancels it into an erasure.
    """

    backend = "abstract"

    def __init__(
        self,
        jamming: JammingModel,
        code_length: int,
        tau: float,
        hello_shape: Tuple[int, int],
        auth_shape: Tuple[int, int],
        noise_std: float = 0.0,
        jam_amplitude: float = 2.0,
    ) -> None:
        if code_length <= 0:
            raise ConfigurationError(
                f"code_length must be positive, got {code_length}"
            )
        if not 0 < tau <= 1:
            raise ConfigurationError(f"tau must be in (0, 1], got {tau}")
        if noise_std < 0:
            raise ConfigurationError(
                f"noise_std must be non-negative, got {noise_std}"
            )
        if jam_amplitude <= 0:
            raise ConfigurationError(
                f"jam_amplitude must be positive, got {jam_amplitude}"
            )
        for label, (coded, plain) in (
            ("hello", hello_shape), ("auth", auth_shape)
        ):
            if not 0 < plain <= coded:
                raise ConfigurationError(
                    f"{label} shape needs 0 < plain <= coded bits, "
                    f"got {(coded, plain)}"
                )
            if coded < CONFIRM_BLOCKS:
                raise ConfigurationError(
                    f"{label} message of {coded} bits is shorter than "
                    f"the {CONFIRM_BLOCKS} acquisition blocks"
                )
        self._jamming = jamming
        self._n = int(code_length)
        self._tau = float(tau)
        self._shapes = {
            _HELLO: (int(hello_shape[0]), int(hello_shape[1])),
            _CONFIRM: (int(hello_shape[0]), int(hello_shape[1])),
            _AUTH: (int(auth_shape[0]), int(auth_shape[1])),
        }
        self._noise_std = float(noise_std)
        self._amplitude = float(jam_amplitude)
        self._identify = _identify_fraction(jamming._mu)

    # -- the shared per-message protocol --------------------------------

    def message_received(
        self, kind: str, code_index: int, rng: np.random.Generator
    ) -> bool:
        """Sample whether one ``kind`` message under ``code_index``
        is acquired *and* decodes.

        Draw order (identical in both backends): chip offset, payload
        bits, the random jammer's targeting coin, jam bits — then any
        backend-specific noise.
        """
        coded, plain = self._shapes[kind]
        offset = int(rng.integers(0, self._n))
        bits = rng.integers(0, 2, size=coded, dtype=np.int8)
        jam_start, jam_len = self._jam_plan(kind, code_index, coded, rng)
        jam_bits = (
            rng.integers(0, 2, size=jam_len, dtype=np.int8)
            if jam_len else None
        )
        received = self._deliver(
            code_index, offset, bits, jam_start, jam_bits, plain, rng
        )
        registry = _metrics()
        if registry.enabled:
            registry.inc(_names.PHY_MESSAGES)
            if not received:
                registry.inc(_names.PHY_MESSAGES_LOST)
        return received

    def hello_received(
        self, code_index: int, rng: np.random.Generator
    ) -> bool:
        """The sub-session's HELLO leg."""
        return self.message_received(_HELLO, code_index, rng)

    def burst_received(
        self, code_index: int, rng: np.random.Generator
    ) -> bool:
        """The CONFIRM + two authentication messages, short-circuiting
        on the first loss (both backends exit at the same message for a
        shared noiseless stream, so the contract survives the early
        exit)."""
        for kind in _BURST_KINDS:
            if not self.message_received(kind, code_index, rng):
                return False
        return True

    def subsession_survives(
        self, code_index: int, rng: np.random.Generator
    ) -> bool:
        """One full sub-session: HELLO then the three-message burst."""
        registry = _metrics()
        if registry.enabled:
            registry.inc(_names.PHY_SUBSESSIONS)
        return self.hello_received(code_index, rng) and (
            self.burst_received(code_index, rng)
        )

    def _jam_plan(
        self,
        kind: str,
        code_index: int,
        coded_bits: int,
        rng: np.random.Generator,
    ) -> Tuple[int, int]:
        """``(jam_start, jam_len)`` in bits for this message.

        Mirrors :class:`~repro.adversary.jammer.JammingModel` /
        ``MediumJammer``: the reactive jammer hits the tail after its
        identification window, the random jammer covers the whole
        message iff its fresh per-message code picks include the target,
        and the intelligent strawman attack spares HELLOs.
        """
        jamming = self._jamming
        if not isinstance(code_index, (int, np.integer)):
            return coded_bits, 0  # session codes are unjammable
        if not jamming.knows(int(code_index)):
            return coded_bits, 0
        strategy = jamming.strategy
        if strategy is JammerStrategy.INTELLIGENT:
            if kind == _HELLO:
                return coded_bits, 0
            return 0, coded_bits
        if strategy is JammerStrategy.REACTIVE:
            start = int(math.floor(self._identify * coded_bits))
            return start, coded_bits - start
        # Random: fresh per-message budget, full coverage on a hit.
        c = jamming.n_compromised
        tries = min(jamming.codes_per_message, c)
        if rng.random() < tries / c:
            return 0, coded_bits
        return coded_bits, 0

    def _deliver(
        self,
        code_index: int,
        offset: int,
        bits: np.ndarray,
        jam_start: int,
        jam_bits: Optional[np.ndarray],
        plain_bits: int,
        rng: np.random.Generator,
    ) -> bool:
        raise NotImplementedError


class ChipPairPHY(PairPHY):
    """The chip-level reference backend: real waveforms end to end.

    Parameters beyond :class:`PairPHY`'s: the ``pool`` supplying actual
    :class:`~repro.dsss.spread_code.SpreadCode` chips per pool index.
    """

    backend = "chip"

    def __init__(
        self,
        pool: CodePool,
        *args: object,
        **kwargs: object,
    ) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        if pool.code_length != self._n:
            raise ConfigurationError(
                f"pool codes are {pool.code_length} chips, PHY expects "
                f"{self._n}"
            )
        self._pool = pool
        self._channel = ChipChannel(noise_std=self._noise_std)
        self._synchronizers: Dict[
            Tuple[int, int], SlidingWindowSynchronizer
        ] = {}

    def _synchronizer(
        self, code_index: int, message_bits: int
    ) -> SlidingWindowSynchronizer:
        key = (int(code_index), int(message_bits))
        sync = self._synchronizers.get(key)
        if sync is None:
            sync = SlidingWindowSynchronizer(
                [self._pool.code(int(code_index))],
                tau=self._tau,
                message_bits=message_bits,
                confirm_blocks=CONFIRM_BLOCKS,
            )
            self._synchronizers[key] = sync
        return sync

    def _deliver(
        self,
        code_index: int,
        offset: int,
        bits: np.ndarray,
        jam_start: int,
        jam_bits: Optional[np.ndarray],
        plain_bits: int,
        rng: np.random.Generator,
    ) -> bool:
        coded_bits = int(bits.size)
        code = self._pool.code(int(code_index))
        channel = self._channel
        channel.add_message(bits, code, offset, label="message")
        if jam_bits is not None and jam_bits.size:
            # Bit-aligned same-code jam, chip-synchronized with the
            # target (the paper's model): random data under the correct
            # code at relative amplitude ``a``.
            channel.add_message(
                jam_bits,
                code,
                offset + jam_start * self._n,
                amplitude=self._amplitude,
                label="jam",
            )
        signal = channel.mix(rng=rng if self._noise_std > 0 else None)
        sync = self._synchronizer(code_index, coded_bits)
        # False locks at pre-offset positions (noise or partial message
        # overlap crossing tau) despread bit salad; the real receiver
        # rejects it upstream and resumes one chip later
        # (scan_validated's recovery), so keep scanning until the true
        # offset locks or the buffer is exhausted.  The scan never
        # considers positions past ``offset`` — the buffer ends exactly
        # ``message_bits * N`` chips after it.
        position = 0
        result = None
        while True:
            candidate = sync.scan(signal, start=position)
            if candidate is None or candidate.position == offset:
                result = candidate
                break
            position = candidate.position + 1
        if result is None:
            registry = _metrics()
            if registry.enabled:
                registry.inc(_names.PHY_ACQUISITION_FAILURES)
            return False
        sent = bits.tolist()
        erasures = sum(1 for bit in result.bits if bit is None)
        errors = sum(
            1
            for decoded, expected in zip(result.bits, sent)
            if decoded is not None and decoded != expected
        )
        if 2 * errors + erasures > coded_bits - plain_bits:
            registry = _metrics()
            if registry.enabled:
                registry.inc(_names.PHY_DECODE_FAILURES)
            return False
        return True


class ChiplessPairPHY(PairPHY):
    """The analytic backend: per-bit correlation statistics, no chips."""

    backend = "chipless"

    def _deliver(
        self,
        code_index: int,
        offset: int,  # drawn for stream parity; the exhaustive scan
        bits: np.ndarray,  # makes the outcome offset-invariant
        jam_start: int,
        jam_bits: Optional[np.ndarray],
        plain_bits: int,
        rng: np.random.Generator,
    ) -> bool:
        coded_bits = int(bits.size)
        corr = (2.0 * bits - 1.0).astype(np.float64)
        if jam_bits is not None and jam_bits.size:
            corr[jam_start : jam_start + jam_bits.size] += (
                self._amplitude * (2.0 * jam_bits - 1.0)
            )
        if self._noise_std > 0:
            corr += rng.normal(
                0.0,
                self._noise_std / math.sqrt(self._n),
                size=coded_bits,
            )
        hits = np.abs(corr) >= self._tau
        if not bool(hits[:CONFIRM_BLOCKS].all()):
            registry = _metrics()
            if registry.enabled:
                registry.inc(_names.PHY_ACQUISITION_FAILURES)
            return False
        # Same decisions as despread(): >= tau -> 1, <= -tau -> 0,
        # otherwise an erasure.
        decisions = np.where(
            corr >= self._tau, 1, np.where(corr <= -self._tau, 0, -1)
        )
        erasures = int((decisions < 0).sum())
        errors = int(((decisions >= 0) & (decisions != bits)).sum())
        if 2 * errors + erasures > coded_bits - plain_bits:
            registry = _metrics()
            if registry.enabled:
                registry.inc(_names.PHY_DECODE_FAILURES)
            return False
        return True


def make_pair_phy(
    backend: str,
    config: object,
    jamming: JammingModel,
    pool: Optional[CodePool] = None,
) -> Optional[PairPHY]:
    """Build the pair PHY for an experiment configuration.

    ``config`` is a :class:`repro.core.config.JRSNDConfig` (duck-typed
    here to keep the dsss layer import-free of core).  Returns ``None``
    for ``"message"`` — the sampler then keeps its original per-message
    Bernoulli path untouched.
    """
    if backend not in PHY_BACKENDS:
        raise ConfigurationError(
            f"phy backend must be one of {PHY_BACKENDS}, got {backend!r}"
        )
    if backend == "message":
        return None
    kwargs = dict(
        code_length=config.code_length,
        tau=config.tau,
        hello_shape=(config.hello_coded_bits, config.hello_plain_bits),
        auth_shape=(config.auth_frame_bits, config.auth_plain_bits),
        noise_std=config.phy_noise_std,
        jam_amplitude=config.phy_jam_amplitude,
    )
    if backend == "chipless":
        return ChiplessPairPHY(jamming, **kwargs)
    if pool is None:
        raise ConfigurationError(
            "the chip PHY backend needs a CodePool supplying real codes"
        )
    return ChipPairPHY(pool, jamming, **kwargs)


# -- closed-form probabilities (the batched sweep) ----------------------


def _phi(x: float) -> float:
    """Standard normal CDF via erf (scipy-free)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _bit_outcome(
    mean: float, sigma_bit: float, tau: float
) -> Tuple[float, float, float]:
    """``(p_correct, p_erasure, p_flip)`` for one bit whose correlation
    is ``N(mean, sigma_bit)`` under the ``>= tau`` decision rule, in the
    bit = 1 convention (symmetric for bit = 0)."""
    if sigma_bit <= 0.0:
        if mean >= tau:
            return 1.0, 0.0, 0.0
        if mean <= -tau:
            return 0.0, 0.0, 1.0
        return 0.0, 1.0, 0.0
    p_flip = _phi((-tau - mean) / sigma_bit)
    p_correct = 1.0 - _phi((tau - mean) / sigma_bit)
    return p_correct, max(1.0 - p_correct - p_flip, 0.0), p_flip


def _mix(
    a: Tuple[float, float, float], b: Tuple[float, float, float]
) -> Tuple[float, float, float]:
    return tuple((x + y) / 2.0 for x, y in zip(a, b))  # type: ignore


@lru_cache(maxsize=256)
def message_success_probability(
    coded_bits: int,
    plain_bits: int,
    tau: float,
    sigma_bit: float,
    jam_amplitude: float,
    jam_start: int,
    jam_len: int,
    confirm_blocks: int = CONFIRM_BLOCKS,
) -> float:
    """Closed-form probability that one message is acquired and decoded.

    Exactly the :class:`ChiplessPairPHY` per-bit model, integrated out:
    acquisition multiplies the no-erasure probabilities of the first
    ``confirm_blocks`` bits, and the decode budget ``2e + f <= n - k``
    is evaluated by convolving each bit's ``{0, 1, 2}``-weight
    distribution (correct / erasure / flip) — the first bits conditioned
    on having acquired.
    """
    clean = _bit_outcome(1.0, sigma_bit, tau)
    jammed = _mix(
        _bit_outcome(1.0 + jam_amplitude, sigma_bit, tau),
        _bit_outcome(1.0 - jam_amplitude, sigma_bit, tau),
    )

    def triple(index: int) -> Tuple[float, float, float]:
        if jam_start <= index < jam_start + jam_len:
            return jammed
        return clean

    p_acquire = 1.0
    for index in range(confirm_blocks):
        p_acquire *= 1.0 - triple(index)[1]
    if p_acquire <= 0.0:
        return 0.0

    poly = np.ones(1, dtype=np.float64)
    for index in range(coded_bits):
        p_ok, p_erase, p_flip = triple(index)
        if index < confirm_blocks:
            # Conditioned on acquisition: these bits are not erasures.
            keep = p_ok + p_flip
            p_ok, p_erase, p_flip = p_ok / keep, 0.0, p_flip / keep
        poly = np.convolve(poly, [p_ok, p_erase, p_flip])
    budget = coded_bits - plain_bits
    return p_acquire * float(poly[: budget + 1].sum())


class ChiplessModel:
    """Draw-free per-pair success probabilities of the chipless PHY.

    One instance per (config, jamming model); everything is reduced to
    two scalars — the sub-session success probability over a safe
    (non-compromised) shared code and over a compromised one — which
    :meth:`pair_success_probability` composes per pair via the paper's
    redundancy design (success iff *any* sub-session survives).
    """

    def __init__(self, config: object, jamming: JammingModel) -> None:
        self._jamming = jamming
        self._tau = float(config.tau)
        self._sigma_bit = (
            float(config.phy_noise_std) / math.sqrt(config.code_length)
        )
        self._amplitude = float(config.phy_jam_amplitude)
        self._shapes = {
            _HELLO: (config.hello_coded_bits, config.hello_plain_bits),
            _CONFIRM: (config.hello_coded_bits, config.hello_plain_bits),
            _AUTH: (config.auth_frame_bits, config.auth_plain_bits),
        }
        self._identify = _identify_fraction(jamming._mu)
        self.p_safe_subsession = self._subsession(compromised=False)
        self.p_compromised_subsession = self._subsession(compromised=True)

    def _message(
        self, kind: str, jam_start: int, jam_len: int
    ) -> float:
        coded, plain = self._shapes[kind]
        return message_success_probability(
            coded,
            plain,
            self._tau,
            self._sigma_bit,
            self._amplitude,
            jam_start,
            jam_len,
        )

    def _message_probability(self, kind: str, compromised: bool) -> float:
        coded, _ = self._shapes[kind]
        if not compromised:
            return self._message(kind, coded, 0)
        strategy = self._jamming.strategy
        if strategy is JammerStrategy.INTELLIGENT:
            if kind == _HELLO:
                return self._message(kind, coded, 0)
            return self._message(kind, 0, coded)
        if strategy is JammerStrategy.REACTIVE:
            start = int(math.floor(self._identify * coded))
            return self._message(kind, start, coded - start)
        c = self._jamming.n_compromised
        if not c:
            return self._message(kind, coded, 0)
        beta = min(self._jamming.codes_per_message, c) / c
        return beta * self._message(kind, 0, coded) + (
            (1.0 - beta) * self._message(kind, coded, 0)
        )

    def _subsession(self, compromised: bool) -> float:
        p = self._message_probability(_HELLO, compromised)
        for kind in _BURST_KINDS:
            p *= self._message_probability(kind, compromised)
        return p

    def pair_success_probability(
        self,
        safe_shared: np.ndarray,
        compromised_shared: np.ndarray,
    ) -> np.ndarray:
        """Vectorised ``1 - (1-p_s)^x_safe * (1-p_c)^x_comp`` over
        per-pair shared-code counts."""
        fail_safe = (1.0 - self.p_safe_subsession) ** np.asarray(
            safe_shared, dtype=np.float64
        )
        fail_comp = (
            1.0 - self.p_compromised_subsession
        ) ** np.asarray(compromised_shared, dtype=np.float64)
        return 1.0 - fail_safe * fail_comp
