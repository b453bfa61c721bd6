"""Chip-level Direct Sequence Spread Spectrum (DSSS) substrate.

Implements Section III of the paper: pseudorandom spread codes, NRZ
spreading, correlation-threshold de-spreading, a superposition channel that
mixes concurrent (possibly jamming) transmissions, and the sliding-window
synchronizer that receivers use to locate a message of unknown start
position inside a chip buffer.
"""

from repro.dsss.channel import ChannelTransmission, ChipChannel
from repro.dsss.correlator import (
    code_matrix,
    correlate,
    correlate_many,
    decide_bit,
)
from repro.dsss.engine import BatchedCorrelationEngine, CorrelationEngine
from repro.dsss.frame import Frame, FrameCodec, MessageType
from repro.dsss.modulation import BPSKModulator
from repro.dsss.phy import (
    PHY_BACKENDS,
    ChiplessModel,
    message_success_probability,
)
from repro.dsss.receiver import (
    BufferSchedule,
    ScheduleWindow,
    required_hello_rounds,
)
from repro.dsss.spread_code import CodePool, SpreadCode
from repro.dsss.spreader import despread, spread
from repro.dsss.synchronizer import SlidingWindowSynchronizer, SyncResult

__all__ = [
    "SpreadCode",
    "CodePool",
    "spread",
    "despread",
    "correlate",
    "correlate_many",
    "code_matrix",
    "decide_bit",
    "CorrelationEngine",
    "BatchedCorrelationEngine",
    "ChipChannel",
    "ChannelTransmission",
    "SlidingWindowSynchronizer",
    "SyncResult",
    "BufferSchedule",
    "ScheduleWindow",
    "required_hello_rounds",
    "PHY_BACKENDS",
    "ChiplessModel",
    "message_success_probability",
    "BPSKModulator",
    "Frame",
    "FrameCodec",
    "MessageType",
]
