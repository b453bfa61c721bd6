"""The chipless PHY model: D-NDP outcomes from correlation statistics.

The default experiment model (``phy_backend="message"``) decides every
sub-session with the paper's per-*message* Bernoulli outcomes
(:class:`repro.adversary.jammer.JammingModel`).  ``"chipless"`` decides
them from the chip model's correlation arithmetic instead, without
materialising a single chip.  With the legitimate NRZ bit ``b``, a
same-code jam bit ``J`` at relative amplitude ``a``, and AWGN of
per-chip sigma ``noise_std``, the normalized block correlation is

    corr = b + a * J + z,   z ~ N(0, noise_std / sqrt(N)),

independent per bit — so acquisition (the first ``confirm_blocks``
correlations all crossing ``tau``) and the decode budget (Reed-Solomon
style ``2 * errors + erasures <= coded - plain``) follow from per-bit
statistics.  :class:`ChiplessModel` integrates them into one success
probability per (pair, code-mix), so the runner's sweep decides every
pair with one uniform draw.  Its per-draw references, the chip-level
one included, are test oracles in :mod:`repro.oracles`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.adversary.jammer import JammerStrategy, JammingModel

if TYPE_CHECKING:
    from repro.core.config import JRSNDConfig

__all__ = [
    "PHY_BACKENDS",
    "CONFIRM_BLOCKS",
    "ChiplessModel",
    "message_success_probability",
]

#: The experiment-level PHY knob values: the paper's per-message
#: Bernoulli model and the chipless correlation model.
PHY_BACKENDS = ("message", "chipless")

#: Blocks that must all cross ``tau`` for an acquisition lock — the
#: synchronizer's default, shared with the chip reference.
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

    Exactly the chipless per-bit model (the per-draw
    :class:`repro.oracles.ChiplessPairPHY`), integrated out:
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

    def __init__(self, config: "JRSNDConfig", jamming: JammingModel) -> None:
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
