"""D-NDP: the direct neighbor discovery protocol (Section V-B).

Two layers live here:

- :class:`DNDPSampler` — the per-pair Monte Carlo model used by the
  field experiments.  It samples exactly the process Theorem 1
  analyzes: one sub-session per shared code, HELLO jammed with the
  strategy's per-message probability, the three later messages jammed as
  a dependent burst, and the pair discovering each other iff any
  sub-session survives (the redundancy design).

- :class:`DNDPSession` — the per-peer state machine the event-driven
  :class:`repro.core.jrsnd.JRSNDNode` drives, carrying the handshake
  through HELLO / CONFIRM / AUTH_REQUEST / AUTH_RESPONSE with real keys,
  MACs and session-code derivation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.adversary.jammer import JammingModel
from repro.core.config import JRSNDConfig
from repro.core.timing import ProtocolTiming
from repro.crypto.identity import NodeId
from repro.dsss.spread_code import SpreadCode
from repro.errors import ProtocolError
from repro.obs import current as _metrics
from repro.obs import names as _names

__all__ = [
    "PairOutcome",
    "DNDPSampler",
    "SessionState",
    "DNDPSession",
    "RetryPolicy",
]


@dataclass(frozen=True)
class PairOutcome:
    """Result of one sampled D-NDP attempt between two physical
    neighbors.

    Attributes
    ----------
    success:
        Whether the pair discovered each other.
    shared_codes:
        How many codes the pair shared (``x``).
    surviving_codes:
        Sub-sessions that survived jamming (empty on failure).
    latency:
        Sampled handshake latency in seconds (``None`` on failure).
    """

    success: bool
    shared_codes: int
    surviving_codes: Sequence[int]
    latency: Optional[float]


class DNDPSampler:
    """Samples D-NDP outcomes per the paper's jamming model.

    Parameters
    ----------
    config:
        Deployment parameters.
    jamming:
        The adversary's jamming model (strategy + compromised codes).
    """

    def __init__(self, config: JRSNDConfig, jamming: JammingModel) -> None:
        self._config = config
        self._jamming = jamming
        self._timing = ProtocolTiming(config)

    @property
    def timing(self) -> ProtocolTiming:
        """The derived timing model."""
        return self._timing

    def sample_pair(
        self,
        shared_codes: Sequence[int],
        rng: np.random.Generator,
        with_latency: bool = False,
        redundancy: bool = True,
    ) -> PairOutcome:
        """Sample one D-NDP attempt given the pair's shared pool codes.

        With ``redundancy`` (the paper's design) every shared code runs
        its own sub-session (HELLO, then the CONFIRM/auth burst), and
        discovery succeeds iff at least one survives end to end.

        With ``redundancy=False`` the responder picks a *single* random
        code among those whose HELLO it decoded and spreads all later
        messages only with it — the strawman Section V-B's "intelligent
        attack" defeats: the attacker spares HELLOs and concentrates on
        the later messages, likely hitting the one chosen code.
        """
        hello_survivors: List[int] = []
        for code in shared_codes:
            if not self._jamming.message_jammed(code, rng):
                hello_survivors.append(int(code))
        surviving: List[int] = []
        if redundancy:
            candidates = hello_survivors
        elif hello_survivors:
            pick = int(rng.integers(0, len(hello_survivors)))
            candidates = [hello_survivors[pick]]
        else:
            candidates = []
        for code in candidates:
            if not self._jamming.burst_jammed(code, 3, rng):
                surviving.append(code)
        success = bool(surviving)
        registry = _metrics()
        if registry.enabled:
            registry.inc(_names.DNDP_PAIRS_SAMPLED)
            registry.inc(
                _names.DNDP_SUCCESSES if success else _names.DNDP_FAILURES
            )
            registry.observe(_names.DNDP_SHARED_CODES, len(shared_codes))
        latency = (
            self.sample_latency(rng) if success and with_latency else None
        )
        return PairOutcome(
            success=success,
            shared_codes=len(shared_codes),
            surviving_codes=tuple(surviving),
            latency=latency,
        )

    def sample_latency(self, rng: np.random.Generator) -> float:
        """Sample the handshake latency per Theorem 2's structure.

        ``T_i = t_rB + t_dB + t_rA + t_dA`` with the first three uniform
        in ``[0, t_p]`` and ``t_dA`` uniform in ``[0, lambda t_h]``, plus
        ``T_a`` = two auth transmissions and two key computations.
        """
        t = self._timing
        t_i = (
            rng.uniform(0.0, t.t_process)
            + rng.uniform(0.0, t.t_process)
            + rng.uniform(0.0, t.t_process)
            + rng.uniform(0.0, t.gap_ratio * t.t_hello)
        )
        t_a = 2.0 * t.t_auth_message + 2.0 * self._config.t_key
        return t_i + t_a

    def expected_latency(self) -> float:
        """Theorem 2's closed-form mean ``T_bar_D``."""
        t = self._timing
        t_i = 1.5 * t.t_process + 0.5 * t.gap_ratio * t.t_hello
        t_a = 2.0 * t.t_auth_message + 2.0 * self._config.t_key
        return t_i + t_a


@dataclass(frozen=True)
class RetryPolicy:
    """A bounded exponential-backoff retry/timeout schedule.

    Attempt ``k`` (0-based) waits ``base_timeout * backoff_factor**k``,
    capped at ``max_timeout``; after ``max_attempts`` retransmissions
    the session is declared FAILED.  ``max_attempts = 0`` means no
    timers at all — the legacy fire-and-forget behavior.
    """

    base_timeout: float
    max_attempts: int
    backoff_factor: float = 2.0
    max_timeout: float = float("inf")

    def __post_init__(self) -> None:
        if self.base_timeout <= 0.0:
            raise ProtocolError(
                f"base_timeout must be positive: {self.base_timeout}"
            )
        if self.max_attempts < 0:
            raise ProtocolError(
                f"max_attempts must be non-negative: {self.max_attempts}"
            )
        if self.backoff_factor < 1.0:
            raise ProtocolError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        if self.max_timeout < self.base_timeout:
            raise ProtocolError(
                "max_timeout cannot be below base_timeout: "
                f"{self.max_timeout} < {self.base_timeout}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any timers should be armed at all."""
        return self.max_attempts > 0

    def timeout_for(self, attempt: int) -> float:
        """The wait before timing out attempt ``attempt`` (0-based)."""
        if attempt < 0:
            raise ProtocolError(f"attempt must be non-negative: {attempt}")
        return min(
            self.base_timeout * self.backoff_factor**attempt,
            self.max_timeout,
        )

    def schedule(self) -> tuple:
        """All waits in order: the initial send plus each retry."""
        return tuple(
            self.timeout_for(attempt)
            for attempt in range(self.max_attempts + 1)
        )

    @property
    def total_budget(self) -> float:
        """Worst-case total wait before a session is declared FAILED."""
        return sum(self.schedule())


class SessionState(enum.Enum):
    """Stages of an event-driven D-NDP session."""

    IDLE = "idle"
    BROADCASTING = "broadcasting"          # initiator: sending HELLOs
    AWAIT_CONFIRM = "await-confirm"        # initiator: listening
    CONFIRMING = "confirming"              # responder: sending CONFIRMs
    AWAIT_AUTH_RESPONSE = "await-auth2"    # initiator: sent AUTH_REQUEST
    ESTABLISHED = "established"
    FAILED = "failed"


@dataclass
class DNDPSession:
    """Per-peer handshake state inside a :class:`JRSNDNode`.

    One node keeps at most one session per peer; the redundancy design
    is captured by :attr:`codes` — every shared code observed for this
    peer, all of which spread the post-HELLO messages.
    """

    peer: NodeId
    initiator: bool
    state: SessionState = SessionState.IDLE
    codes: Set[int] = field(default_factory=set)
    my_nonce: Optional[int] = None
    peer_nonce: Optional[int] = None
    shared_key: Optional[bytes] = None
    session_code: Optional[SpreadCode] = None
    started_at: float = 0.0
    established_at: Optional[float] = None
    # Retry/timeout bookkeeping: how many retransmissions this session
    # has burned, and a token that invalidates stale timer callbacks
    # (each armed timer captures the current token; a timer whose token
    # no longer matches belongs to a superseded attempt and must no-op).
    attempts: int = 0
    timer_token: int = 0
    # Pool codes this session holds a real-time monitor refcount on.
    # Monitors must be acquired/released exactly once per session per
    # code, or one session's teardown can strip the monitoring another
    # still needs — tracking them here makes release idempotent.
    monitored: Set[int] = field(default_factory=set)

    def add_code(self, code_index: int) -> None:
        """Record one more shared code observed for this peer."""
        self.codes.add(int(code_index))

    def bump_timer(self) -> int:
        """Invalidate outstanding timers; returns the fresh token."""
        self.timer_token += 1
        return self.timer_token

    def require_state(self, *allowed: SessionState) -> None:
        """Guard against out-of-order protocol events."""
        if self.state not in allowed:
            raise ProtocolError(
                f"session with {self.peer!r} in state {self.state.value}; "
                f"expected one of {[s.value for s in allowed]}"
            )

    @property
    def latency(self) -> Optional[float]:
        """Measured handshake latency once established."""
        if self.established_at is None:
            return None
        return self.established_at - self.started_at
