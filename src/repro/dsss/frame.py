"""Message framing for JR-SND protocol messages.

Every over-the-air message starts with an ``l_t``-bit message-type
identifier followed by a payload (e.g. the sender's ``l_id``-bit ID for a
HELLO), and the whole frame is ECC-encoded with expansion factor
``1 + mu`` before spreading (Section V-B).  :class:`FrameCodec` performs
that framing and the inverse, turning the de-spread bit decisions (with
erasures) back into a typed frame.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.ecc.codec import ExpansionCodec
from repro.errors import ConfigurationError, DecodeError
from repro.utils.bitstring import bits_from_int, bits_to_int

__all__ = ["MessageType", "Frame", "FrameCodec"]


class MessageType(enum.IntEnum):
    """The over-the-air message types of D-NDP and M-NDP."""

    HELLO = 1
    CONFIRM = 2
    AUTH_REQUEST = 3
    AUTH_RESPONSE = 4
    MNDP_REQUEST = 5
    MNDP_RESPONSE = 6


@dataclass(frozen=True)
class Frame:
    """A typed protocol frame: message type plus raw payload bits."""

    message_type: MessageType
    payload: np.ndarray

    def __post_init__(self) -> None:
        payload = np.asarray(self.payload, dtype=np.int8)
        if payload.size and not np.isin(payload, (0, 1)).all():
            raise ConfigurationError("payload must contain only 0 and 1")
        object.__setattr__(self, "payload", payload)

    @property
    def plain_bits(self) -> int:
        """Frame length before ECC (type field + payload)."""
        return FrameCodec.TYPE_BITS + int(self.payload.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.message_type == other.message_type and bool(
            np.array_equal(self.payload, other.payload)
        )


class FrameCodec:
    """Encodes/decodes typed frames with the rate-``mu`` ECC.

    Parameters
    ----------
    mu:
        ECC expansion parameter; coded frames are about ``(1 + mu)``
        times the plain frame length.
    type_bits:
        Width of the message-type field (the paper's ``l_t``, default 5).
    """

    TYPE_BITS = 5

    def __init__(self, mu: float, type_bits: int = TYPE_BITS) -> None:
        if type_bits < 3:
            raise ConfigurationError(
                f"type_bits must be >= 3 to hold all message types, "
                f"got {type_bits}"
            )
        self._type_bits = int(type_bits)
        self._codec = ExpansionCodec(mu)

    @property
    def mu(self) -> float:
        """ECC expansion parameter."""
        return self._codec.mu

    @property
    def type_bits(self) -> int:
        """Width of the message-type field."""
        return self._type_bits

    def coded_bits(self, payload_bits: int) -> int:
        """Coded frame length for a payload of ``payload_bits``."""
        return self._codec.encoded_bits(self._type_bits + payload_bits)

    def encode(self, frame: Frame) -> np.ndarray:
        """Frame + ECC-encode; returns the coded bit array to spread."""
        header = bits_from_int(int(frame.message_type), self._type_bits)
        plain = np.concatenate([header, frame.payload]).astype(np.int8)
        return self._codec.encode(plain)

    def decode(
        self, decisions: Sequence[Optional[int]], payload_bits: int
    ) -> Frame:
        """Decode de-spread bit decisions back into a frame.

        ``payload_bits`` is the expected payload length (receivers know
        the frame layout of each protocol step).  Raises
        :class:`repro.errors.DecodeError` on unrecoverable corruption or
        an unknown message type.
        """
        plain_bits = self._type_bits + payload_bits
        plain = self._codec.decode(decisions, plain_bits)
        type_value = bits_to_int(plain[: self._type_bits])
        try:
            message_type = MessageType(type_value)
        except ValueError as exc:
            raise DecodeError(
                f"decoded unknown message type {type_value}"
            ) from exc
        return Frame(message_type, plain[self._type_bits :])
