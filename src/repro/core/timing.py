"""The Section V-B timing model.

All the time quantities D-NDP's schedule is built from:

- ``t_h = l_h N / R`` — one HELLO copy under one code;
- ``t_b = (m + 1) t_h`` — buffering duration guaranteeing a complete
  copy regardless of alignment;
- ``lambda = rho N m R`` — processing/buffering gap ratio;
- ``t_p = lambda t_b`` — time to scan one buffer against all ``m`` codes;
- ``r = ceil((lambda + 1)(m + 1) / m)`` — HELLO rounds so the broadcast
  spans ``(lambda + 1) t_b`` and covers some buffered window at any
  schedule phase.
"""

from __future__ import annotations

import math

from repro.core.config import JRSNDConfig
from repro.dsss.receiver import BufferSchedule, required_hello_rounds

__all__ = ["ProtocolTiming"]


class ProtocolTiming:
    """Derives every Section V-B time constant from a configuration."""

    def __init__(self, config: JRSNDConfig) -> None:
        self._config = config

    @property
    def config(self) -> JRSNDConfig:
        """The underlying configuration."""
        return self._config

    @property
    def t_hello(self) -> float:
        """``t_h``: seconds per HELLO copy under one code."""
        c = self._config
        return c.hello_coded_bits * c.code_length / c.chip_rate

    @property
    def code_cycle(self) -> int:
        """HELLO slots per round: ``ceil(m / k)`` with ``k`` transmit
        antennas broadcasting distinct codes in parallel (k = 1 in the
        paper; more is its future-work extension)."""
        return math.ceil(
            self._config.codes_per_node / self._config.tx_antennas
        )

    @property
    def t_round(self) -> float:
        """One round = all ``m`` codes, ``tx_antennas`` at a time."""
        return self.code_cycle * self.t_hello

    @property
    def t_buffer(self) -> float:
        """``t_b = (cycle + 1) t_h`` — one full code cycle plus one
        slot guarantees a complete copy of any given code's HELLO in
        the buffer (``(m + 1) t_h`` in the paper's single-antenna
        case)."""
        return (self.code_cycle + 1) * self.t_hello

    @property
    def gap_ratio(self) -> float:
        """``lambda = rho N m R``."""
        c = self._config
        return c.rho * c.code_length * c.codes_per_node * c.chip_rate

    @property
    def t_process(self) -> float:
        """``t_p = lambda t_b``."""
        return self.gap_ratio * self.t_buffer

    @property
    def hello_rounds(self) -> int:
        """``r = ceil((lambda + 1)(cycle + 1) / cycle)`` — the paper's
        ``ceil((lambda + 1)(m + 1) / m)`` for one transmit antenna.

        Evaluated in exact integer arithmetic
        (:func:`repro.dsss.receiver.required_hello_rounds`): the float
        division-then-ceil form can land one round off near integer
        quotients, which here means an under-covering broadcast.
        """
        return required_hello_rounds(self.gap_ratio, self.code_cycle)

    @property
    def hello_broadcast_duration(self) -> float:
        """Total HELLO broadcast time ``r m t_h >= (lambda + 1) t_b``."""
        return self.hello_rounds * self.t_round

    @property
    def t_auth_message(self) -> float:
        """Transmission delay of one authentication message
        ``l_f N / R``."""
        c = self._config
        return c.auth_frame_bits * c.code_length / c.chip_rate

    @property
    def t_confirm(self) -> float:
        """One CONFIRM copy: same frame layout as HELLO but carrying the
        responder ID, so the same duration ``t_h``."""
        return self.t_hello

    @property
    def handshake_timeout(self) -> float:
        """Base timeout for the AUTH round trip of the handshake.

        A generous bound on the benign worst case — the peer's buffered
        decode (``t_b + t_p``), both key computations, and a few auth
        transmissions — so in a loss-free run the timer never fires
        before the AUTH_RESPONSE arrives and retries stay silent.
        """
        c = self._config
        return (
            2.0 * (self.t_process + self.t_buffer)
            + 2.0 * c.t_key
            + 6.0 * self.t_auth_message
        )

    def schedule(self, phase: float = 0.0) -> BufferSchedule:
        """A node's buffer/process schedule at the given phase offset.

        When processing outpaces buffering (``lambda < 1``, possible for
        tiny ``m``) the schedule degenerates to back-to-back buffering;
        ``BufferSchedule`` requires ``t_p >= t_b`` so we clamp.
        """
        t_process = max(self.t_process, self.t_buffer)
        return BufferSchedule(self.t_buffer, t_process, phase=phase)

    def mndp_request_bits(self, hop: int, neighbor_count: int) -> int:
        """Wire bits of an M-NDP request after ``hop`` extensions.

        Each relay appends its ID, its neighbor list, and a signature;
        the base request carries the source ID, neighbor list, nonce,
        the ``l_nu`` hop field, and the source signature.
        """
        c = self._config
        per_node = (neighbor_count + 1) * c.id_bits + c.signature_bits
        return (
            (hop + 1) * per_node + c.nonce_bits + c.hop_field_bits
        )

    def theorem4_t_nu(self, nu: int, degree: float) -> float:
        """Theorem 4's transmission-delay term ``T_nu``.

        ``T_nu = N/R * (3 nu (nu+1)/2 * ((g+1) l_id + 2 l_sig)
        + 2 nu (l_n + l_nu))``.
        """
        c = self._config
        per_hop = (degree + 1.0) * c.id_bits + 2.0 * c.signature_bits
        return (
            c.code_length
            / c.chip_rate
            * (
                3.0 * nu * (nu + 1) / 2.0 * per_hop
                + 2.0 * nu * (c.nonce_bits + c.hop_field_bits)
            )
        )
