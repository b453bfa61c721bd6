"""An event-driven JR-SND node: D-NDP + M-NDP with real cryptography.

:class:`JRSNDNode` runs the full protocol of Section V on the
discrete-event kernel: it broadcasts ECC-framed HELLOs under each of its
pool codes, models the buffer/process schedule when receiving on codes
it is not monitoring in real time, performs the CONFIRM / AUTH handshake
with genuine pairwise keys and MACs, derives session spread codes, and
executes the signed multi-hop M-NDP including relay routing and the
final HELLO/CONFIRM confirmation over the fresh session code (which is
also what eliminates M-NDP false positives when GPS filtering is off —
an out-of-range "neighbor" can never complete the exchange).

Timing fidelity: transmissions occupy the medium for their paper-model
durations, buffered receptions are delayed per the node's
:class:`~repro.dsss.receiver.BufferSchedule`, and crypto operations
charge Table I costs on the simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import JRSNDConfig
from repro.core.dndp import DNDPSession, RetryPolicy, SessionState
from repro.core.messages import (
    AuthRequest,
    AuthResponse,
    Confirm,
    Hello,
    MNDPExtension,
    MNDPRequest,
    MNDPResponse,
    nonce_bytes,
)
from repro.core.mndp import (
    PendingRequestQueue,
    validate_request_chain,
    validate_response_chain,
)
from repro.core.neighbors import NeighborTable
from repro.core.timing import ProtocolTiming
from repro.core.wire import WireCodec
from repro.crypto.identity import IBCPrivateKey, NodeId
from repro.crypto.mac import MessageAuthenticator
from repro.crypto.nonces import NonceGenerator, ReplayCache
from repro.crypto.session import derive_session_code
from repro.crypto.signatures import SignatureScheme
from repro.dsss.engine import BatchedCorrelationEngine
from repro.dsss.spread_code import SpreadCode
from repro.dsss.synchronizer import SlidingWindowSynchronizer
from repro.errors import (
    ConfigurationError,
    DecodeError,
    ProtocolError,
    RevokedCodeError,
)
from repro.obs import MetricsRegistry
from repro.obs import names as _names
from repro.utils.artifact_cache import shared_cache
from repro.predistribution.revocation import RevocationList
from repro.sim.engine import Simulator, Timeout
from repro.sim.field import Position
from repro.sim.medium import RadioMedium, Transmission

__all__ = ["JRSNDNode", "JRSNDOutcome", "FakeSignedRequest"]

#: Multiplier between consecutive AUTH-retry timeouts.
RETRY_BACKOFF_FACTOR = 2.0
#: Simulated seconds an M-NDP frame may wait in the pending queue (and
#: the age bound for the request dedup / return-route state) before it
#: is garbage-collected.
MNDP_TTL = 120.0
#: How many times a queued M-NDP frame may be requeued after its target
#: session vanished again before it is dropped.
MNDP_MAX_REQUEUES = 3


@dataclass(frozen=True)
class JRSNDOutcome:
    """Summary of one node's discoveries at the end of a run."""

    node: int
    logical_neighbors: Tuple[int, ...]
    dndp_count: int
    mndp_count: int

    @property
    def total(self) -> int:
        """Total logical neighbors discovered."""
        return len(self.logical_neighbors)


@dataclass(frozen=True)
class FakeSignedRequest:
    """An adversary-injected frame that fails signature verification.

    Carries no valid content; its only effect is to cost the victim one
    ``t_ver`` and bump the revocation counter of the pool code it was
    spread with (Section V-D).
    """

    claimed_sender: NodeId


@dataclass
class _SessionCodeState:
    """A pending or established session spread code with one peer."""

    peer: NodeId
    code: SpreadCode
    confirmed: bool = False


class JRSNDNode:
    """One MANET node running JR-SND on the event kernel.

    Parameters
    ----------
    index:
        The node's simulation index (medium address).
    node_id:
        Its IBC identity.
    private_key:
        The authority-issued ID-based private key.
    codes:
        The node's pre-distributed :class:`SpreadCode` objects, whose
        ``code_id`` values are pool indices.
    config, simulator, medium, scheme:
        Shared infrastructure.
    rng:
        The node's private random stream.
    metrics:
        The network's shared registry (counters: ``dndp.established``,
        ``mndp.established``, ``dos.verifications`` ...; histograms:
        ``dndp.latency``, ``mndp.latency``).
    position:
        Static position; register a custom getter for mobility via
        ``medium.register_node`` before calling :meth:`start`.
    """

    def __init__(
        self,
        index: int,
        node_id: NodeId,
        private_key: IBCPrivateKey,
        codes: Sequence[SpreadCode],
        config: JRSNDConfig,
        simulator: Simulator,
        medium: RadioMedium,
        scheme: SignatureScheme,
        rng: np.random.Generator,
        metrics: MetricsRegistry,
        position: Position,
    ) -> None:
        if not codes:
            raise ConfigurationError("a node needs at least one spread code")
        self.index = int(index)
        self.node_id = node_id
        self._key = private_key
        self._codes: Dict[int, SpreadCode] = {}
        for code in codes:
            if not isinstance(code.code_id, (int, np.integer)):
                raise ConfigurationError(
                    "pre-distributed codes must carry pool indices"
                )
            self._codes[int(code.code_id)] = code
        self.config = config
        self.timing = ProtocolTiming(config)
        self._sim = simulator
        self._medium = medium
        self._scheme = scheme
        self._rng = rng
        self._metrics = metrics
        self._position = position
        self._nonces = NonceGenerator(rng, config.nonce_bits)
        self._replay = ReplayCache()
        self.revocation = RevocationList(
            self._codes.keys(), config.revocation_gamma
        )
        phase = float(rng.uniform(0.0, self.timing.t_process))
        self._schedule = self.timing.schedule(phase=phase)
        base_timeout = self.timing.handshake_timeout
        self._retry = RetryPolicy(
            base_timeout=base_timeout,
            max_attempts=config.retry_max_attempts,
            backoff_factor=RETRY_BACKOFF_FACTOR,
            max_timeout=8.0 * base_timeout,
        )
        self._mndp_queue = PendingRequestQueue(
            ttl=MNDP_TTL,
            max_requeues=MNDP_MAX_REQUEUES,
            capacity=config.mndp_queue_capacity,
        )
        self._sessions: Dict[NodeId, DNDPSession] = {}
        self._session_codes: Dict[NodeId, _SessionCodeState] = {}
        self._logical: Dict[NodeId, int] = {}  # peer id -> peer index
        self._dndp_count = 0
        self._mndp_count = 0
        # Real-time monitored pool codes are reference-counted: several
        # concurrent sessions can share one pool code, and one session
        # ending must not stop the monitoring another still needs.
        self._realtime: Dict[int, int] = {}
        # M-NDP dedup keys map to the sim time they were recorded so
        # gc_stale_sessions() can age them out together with the
        # matching return-route entries.
        self._mndp_seen: Dict[Tuple[NodeId, int], float] = {}
        self._mndp_return_route: Dict[Tuple[NodeId, int], NodeId] = {}
        self._peer_index: Dict[NodeId, int] = {}
        self.neighbor_table = NeighborTable()
        self._my_mndp_nonce: Optional[int] = None
        self._wire = WireCodec(config) if config.wire_fidelity else None
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Register with the medium and begin scanning all pool codes."""
        if self._started:
            return
        self._started = True
        self._medium.register_node(self.index, lambda: self._position)
        for pool_index in self._codes:
            self._medium.listen(
                self.index, pool_index, self._on_pool_delivery
            )

    @property
    def position(self) -> Position:
        """Current position."""
        return self._position

    @position.setter
    def position(self, value: Position) -> None:
        self._position = value

    @property
    def logical_neighbors(self) -> Set[NodeId]:
        """IDs of every discovered-and-authenticated neighbor."""
        return set(self._logical)

    def outcome(self) -> JRSNDOutcome:
        """Discovery summary for this node."""
        return JRSNDOutcome(
            node=self.index,
            logical_neighbors=tuple(sorted(self._logical.values())),
            dndp_count=self._dndp_count,
            mndp_count=self._mndp_count,
        )

    def session_with(self, peer: NodeId) -> Optional[DNDPSession]:
        """The D-NDP session with ``peer``, if any."""
        return self._sessions.get(peer)

    def build_synchronizer(
        self,
        message_bits: Optional[int] = None,
        confirm_blocks: int = 3,
    ) -> SlidingWindowSynchronizer:
        """A chip-level synchronizer over this node's active pool codes.

        This is the receiver the timing model charges ``t_p`` for: it
        slides an ``N``-chip window over a buffered signal and correlates
        against every non-revoked pre-distributed code.
        ``message_bits`` defaults to the coded HELLO length ``l_h``.
        """
        codes = [
            self._codes[pool_index]
            for pool_index in sorted(self._codes)
            if self.revocation.is_active(pool_index)
        ]
        if not codes:
            raise ConfigurationError(
                "every pre-distributed code has been revoked; nothing "
                "left to monitor"
            )
        bits = (
            self.config.hello_coded_bits
            if message_bits is None
            else int(message_bits)
        )
        # The engine's stacked code matrix is invariant across rounds
        # and trials for a given code set, so it is memoized in the
        # process-local artifact cache; the synchronizer wrapper itself
        # is cheap and built fresh each call.
        cache_key = tuple(
            (int(code.code_id), code.chips.tobytes()) for code in codes
        )
        engine = shared_cache().get_or_build(
            "correlation_engine",
            cache_key,
            lambda: BatchedCorrelationEngine(codes),
        )
        return SlidingWindowSynchronizer(
            codes,
            tau=self.config.tau,
            message_bits=bits,
            confirm_blocks=confirm_blocks,
            engine=engine,
        )

    # ------------------------------------------------------------------
    # D-NDP initiator
    # ------------------------------------------------------------------

    def start_periodic_discovery(
        self,
        period: float,
        mndp: bool = True,
        rounds: Optional[int] = None,
    ):
        """Initiate discovery once per ``period`` at a random point.

        Implements Section V-B's randomized periodic initiation: "in
        every interval of length T, each node initiates the D-NDP
        process once at a random time point"; when ``mndp`` is set the
        M-NDP round follows each broadcast.  Runs until the simulation
        ends.
        """
        if period <= 0:
            raise ConfigurationError(f"period must be positive: {period}")

        def periodic() -> Iterator[object]:
            while True:
                yield Timeout(float(self._rng.uniform(0.0, period)))
                broadcast = self.initiate_dndp(rounds=rounds)
                yield broadcast
                if mndp and self._logical:
                    yield self.initiate_mndp()
                remaining = period - (self._sim.now % period)
                yield Timeout(remaining % period or period)

        return self._sim.process(
            periodic(), name=f"periodic@{self.index}"
        )

    def initiate_dndp(self, rounds: Optional[int] = None):
        """Start the D-NDP HELLO broadcast; returns the Process.

        ``rounds`` defaults to the paper's ``r``; tests may lower it.
        """
        n_rounds = self.timing.hello_rounds if rounds is None else int(rounds)
        return self._sim.process(
            self._broadcast_hello(n_rounds), name=f"dndp@{self.index}"
        )

    def _broadcast_hello(self, rounds: int) -> Iterator[object]:
        hello = Hello(self.node_id)
        t_h = self.timing.t_hello
        k = self.config.tx_antennas
        for _ in range(rounds):
            active = sorted(self.revocation.active_codes())
            # k transmit antennas broadcast k distinct codes in parallel
            # per slot (k = 1 in the paper).
            for slot_start in range(0, len(active), k):
                for pool_index in active[slot_start : slot_start + k]:
                    self._medium.transmit(
                        self.index,
                        pool_index,
                        self._to_wire(hello),
                        duration=t_h,
                    )
                yield Timeout(t_h)

    # ------------------------------------------------------------------
    # delivery dispatch
    # ------------------------------------------------------------------

    def _to_wire(self, message: object) -> object:
        """Serialize for the air when wire fidelity is on."""
        if self._wire is None or isinstance(message, FakeSignedRequest):
            return message
        return self._wire.encode(message)

    def _from_wire(self, frame: object) -> object:
        """Parse a received frame when wire fidelity is on."""
        from repro.dsss.frame import Frame

        if self._wire is None or not isinstance(frame, Frame):
            return frame
        try:
            return self._wire.decode(frame)
        except (DecodeError, ProtocolError, ConfigurationError):
            # Garbage on the air — jamming residue, truncation, or
            # adversarial bytes — is dropped like channel noise.  Any
            # other exception propagates: a codec bug must not be
            # silently misread as interference.
            self._metrics.inc(_names.WIRE_UNDECODABLE)
            return None

    def _on_pool_delivery(self, tx: Transmission) -> None:
        """A message arrived under one of this node's pool codes."""
        pool_index = int(tx.code_key)
        if not self.revocation.is_active(pool_index):
            return
        if self._is_realtime(pool_index):
            self._dispatch(tx, delay_known=True)
            return
        # Buffered path: the copy must land inside a buffered window.
        window = self._covering_window(tx.start, tx.end)
        if window is None:
            return
        fraction = (tx.start - window.buffer_start) / max(
            window.duration, 1e-12
        )
        decode_at = window.buffer_end + fraction * (
            window.processing_done - window.buffer_end
        )
        self._sim.call_at(decode_at, self._dispatch, tx, False)

    def _covering_window(self, start: float, end: float):
        for window in self._schedule.windows_between(start, end):
            if window.buffer_start <= start and end <= window.buffer_end:
                return window
        return None

    def _is_realtime(self, pool_index: int) -> bool:
        return self._realtime.get(pool_index, 0) > 0

    def _monitor(self, pool_index: int) -> None:
        """Increase the real-time monitoring refcount of a pool code."""
        self._realtime[pool_index] = self._realtime.get(pool_index, 0) + 1

    def _unmonitor(self, pool_index: int) -> None:
        """Decrease the monitoring refcount (no-op at zero)."""
        count = self._realtime.get(pool_index, 0)
        if count <= 1:
            self._realtime.pop(pool_index, None)
        else:
            self._realtime[pool_index] = count - 1

    def _monitor_for(self, session: DNDPSession, pool_index: int) -> None:
        """Acquire a monitor refcount on behalf of ``session``, exactly
        once per (session, code) — re-sends must not double-count."""
        if pool_index in session.monitored:
            return
        session.monitored.add(pool_index)
        self._monitor(pool_index)

    def _release_monitors(self, session: DNDPSession) -> None:
        """Release every refcount ``session`` holds (idempotent)."""
        for pool_index in session.monitored:
            self._unmonitor(pool_index)
        session.monitored.clear()

    def _fail_session(self, session: DNDPSession) -> None:
        """Terminal failure: cancel timers, release monitors."""
        session.state = SessionState.FAILED
        session.bump_timer()
        self._release_monitors(session)

    def _drop_session(self, peer: NodeId, session: DNDPSession) -> None:
        """Forget a dead session and everything it holds: monitor
        refcounts, any unconfirmed session-code listener, and the
        session-table entry itself."""
        session.bump_timer()
        self._release_monitors(session)
        state = self._session_codes.get(peer)
        if state is not None and not state.confirmed:
            self._medium.stop_listening(self.index, state.code.code_id)
            del self._session_codes[peer]
        if self._sessions.get(peer) is session:
            del self._sessions[peer]

    def _dispatch(self, tx: Transmission, delay_known: bool) -> None:
        frame = self._from_wire(tx.frame)
        pool_index = tx.code_key
        if isinstance(frame, Hello):
            self._on_hello(frame, int(pool_index), tx.sender)
        elif isinstance(frame, Confirm):
            self._on_confirm(frame, int(pool_index), tx.sender)
        elif isinstance(frame, AuthRequest):
            self._on_auth_request(frame, int(pool_index), tx.sender)
        elif isinstance(frame, AuthResponse):
            self._on_auth_response(frame, int(pool_index), tx.sender)
        elif isinstance(frame, FakeSignedRequest):
            self._on_fake_request(int(pool_index))
        # Unknown frames are ignored (undecodable content).

    # ------------------------------------------------------------------
    # D-NDP responder / handshake
    # ------------------------------------------------------------------

    def _session_stale(self, session: DNDPSession) -> bool:
        """A non-established session left over from an earlier discovery
        period (FAILED, or pending far longer than a handshake can
        take — the peer moved away mid-exchange) must not block
        re-discovery when the peer returns."""
        if session.state is SessionState.ESTABLISHED:
            return False
        if session.state is SessionState.FAILED:
            return True
        stale_after = 4.0 * (
            self.timing.t_process + self.timing.hello_broadcast_duration
        )
        return (self._sim.now - session.started_at) > stale_after

    def _on_hello(self, hello: Hello, pool_index: int, sender: int) -> None:
        peer = hello.sender
        if peer == self.node_id or peer in self._logical:
            return
        self._peer_index[peer] = sender
        session = self._sessions.get(peer)
        if session is not None and self._session_stale(session):
            # A stale session from an earlier discovery period (e.g.
            # responder timeout, or a handshake cut off by mobility)
            # must not block re-discovery — and must hand back the
            # monitor refcounts it still holds.
            self._drop_session(peer, session)
            session = None
        if session is None:
            session = DNDPSession(
                peer=peer,
                initiator=False,
                state=SessionState.CONFIRMING,
                started_at=self._sim.now,
            )
            self._sessions[peer] = session
            session.add_code(pool_index)
            self._monitor_for(session, pool_index)
            self._sim.process(
                self._send_confirms(session), name=f"confirm@{self.index}"
            )
        elif pool_index not in session.codes:
            session.add_code(pool_index)
            self._monitor_for(session, pool_index)

    def _send_confirms(self, session: DNDPSession) -> Iterator[object]:
        """Responder: repeat CONFIRM on every shared code for up to
        ``t_p`` or until the handshake advances."""
        confirm = Confirm(self.node_id)
        # Seed behavior waited exactly t_p, which at light processing
        # loads (t_p clamped to t_b, a few ms) is shorter than the
        # initiator's t_key — the responder would give up before the
        # peer could possibly answer.  With retries enabled the
        # responder stays available for the initiator's whole retry
        # budget; state advance exits the loop early either way, so
        # fault-free runs never see the difference.
        wait = self.timing.t_process
        if self._retry.enabled:
            wait = max(wait, self._retry.total_budget)
        deadline = self._sim.now + wait
        t_c = self.timing.t_confirm
        while (
            self._sim.now < deadline
            and session.state is SessionState.CONFIRMING
        ):
            for pool_index in sorted(session.codes):
                if not self.revocation.is_active(pool_index):
                    continue
                self._medium.transmit(
                    self.index,
                    pool_index,
                    self._to_wire(confirm),
                    duration=t_c,
                )
                yield Timeout(t_c)
            if not session.codes:
                break
        if session.state is SessionState.CONFIRMING:
            # Timer expired with no AUTH_REQUEST: peer moved away.
            self._fail_session(session)
            self._metrics.inc(_names.DNDP_RESPONDER_TIMEOUT)

    def _on_confirm(
        self, confirm: Confirm, pool_index: int, sender: int
    ) -> None:
        peer = confirm.sender
        if peer == self.node_id or peer in self._logical:
            return
        self._peer_index[peer] = sender
        session = self._sessions.get(peer)
        if session is not None and self._session_stale(session):
            # Stale session from an earlier period: reclaim its state.
            self._drop_session(peer, session)
            session = None
        if session is None:
            session = DNDPSession(
                peer=peer,
                initiator=True,
                state=SessionState.AWAIT_CONFIRM,
                started_at=self._sim.now,
            )
            self._sessions[peer] = session
        become_initiator = session.state in (
            SessionState.IDLE,
            SessionState.BROADCASTING,
            SessionState.AWAIT_CONFIRM,
        )
        if (
            session.state is SessionState.CONFIRMING
            and self.node_id < peer
        ):
            # Both sides decoded each other's HELLO and responded: a
            # symmetric deadlock the paper's "A initiates prior to B"
            # assumption hides.  Deterministic tie-break: the lower ID
            # switches to the initiator role.
            become_initiator = True
        session.add_code(pool_index)
        if become_initiator:
            session.state = SessionState.AWAIT_AUTH_RESPONSE
            self._sim.process(
                self._send_auth_request(session),
                name=f"auth1@{self.index}",
            )

    def _send_auth_request(self, session: DNDPSession) -> Iterator[object]:
        """Initiator: compute ``K_AB`` (t_key) and send AUTH_REQUEST on
        every shared code (redundancy design)."""
        yield Timeout(self.config.t_key)
        session.shared_key = self._key.shared_key(session.peer)
        session.my_nonce = self._nonces.next()
        mac = MessageAuthenticator(session.shared_key, self.config.mac_bits)
        request = AuthRequest(
            sender=self.node_id,
            nonce=session.my_nonce,
            mac_tag=mac.tag(
                self.node_id.to_bytes(),
                nonce_bytes(session.my_nonce),
            ),
        )
        t_a = self.timing.t_auth_message
        for pool_index in sorted(session.codes):
            if session.state is not SessionState.AWAIT_AUTH_RESPONSE:
                # Answered (or failed) mid-volley: transmitting the
                # remaining copies would re-acquire monitors that
                # _establish/_fail_session just released.
                return
            if not self.revocation.is_active(pool_index):
                continue
            self._medium.transmit(
                self.index, pool_index, self._to_wire(request), t_a
            )
            self._monitor_for(session, pool_index)
            yield Timeout(t_a)
        if (
            self._retry.enabled
            and session.state is SessionState.AWAIT_AUTH_RESPONSE
        ):
            self._arm_auth_timer(session)

    # ------------------------------------------------------------------
    # AUTH retry timers (bounded exponential backoff)
    # ------------------------------------------------------------------

    def _arm_auth_timer(self, session: DNDPSession) -> None:
        """Arm the timeout for the session's current AUTH attempt."""
        token = session.bump_timer()
        self._sim.call_after(
            self._retry.timeout_for(session.attempts),
            self._on_auth_timeout,
            session,
            token,
        )

    def _on_auth_timeout(self, session: DNDPSession, token: int) -> None:
        """No AUTH_RESPONSE before the deadline: retransmit or fail."""
        if token != session.timer_token:
            return  # superseded: the handshake advanced or was reset
        if session.state is not SessionState.AWAIT_AUTH_RESPONSE:
            return
        if self._sessions.get(session.peer) is not session:
            return  # replaced by a newer session with the same peer
        if session.attempts >= self._retry.max_attempts:
            self._metrics.inc(_names.RETRY_SESSIONS_FAILED)
            self._fail_session(session)
            return
        session.attempts += 1
        self._metrics.inc(_names.RETRY_AUTH_RETRANSMITS)
        self._sim.process(
            self._resend_auth_request(session),
            name=f"auth-retry@{self.index}",
        )

    def _resend_auth_request(self, session: DNDPSession) -> Iterator[object]:
        """Rebuild and retransmit AUTH_REQUEST from cached session state.

        The shared key and nonce were computed on the first attempt, so
        no ``t_key`` is charged and the frame is byte-identical — the
        responder's replay cache would reject a fresh nonce anyway (it
        answers idempotently via :meth:`_retransmit_auth_response`).
        """
        assert session.shared_key is not None
        assert session.my_nonce is not None
        mac = MessageAuthenticator(session.shared_key, self.config.mac_bits)
        request = AuthRequest(
            sender=self.node_id,
            nonce=session.my_nonce,
            mac_tag=mac.tag(
                self.node_id.to_bytes(),
                nonce_bytes(session.my_nonce),
            ),
        )
        t_a = self.timing.t_auth_message
        for pool_index in sorted(session.codes):
            if session.state is not SessionState.AWAIT_AUTH_RESPONSE:
                return  # answered mid-volley: see _send_auth_request
            if not self.revocation.is_active(pool_index):
                continue
            self._monitor_for(session, pool_index)
            self._medium.transmit(
                self.index, pool_index, self._to_wire(request), t_a
            )
            yield Timeout(t_a)
        if session.state is SessionState.AWAIT_AUTH_RESPONSE:
            self._arm_auth_timer(session)

    def _on_auth_request(
        self, request: AuthRequest, pool_index: int, sender: int
    ) -> None:
        peer = request.sender
        session = self._sessions.get(peer)
        if session is None:
            return
        if (
            self._retry.enabled
            and session.state is SessionState.ESTABLISHED
            and session.established_at is not None
            and session.peer_nonce == request.nonce
            and session.shared_key is not None
            and self._sim.now - session.established_at
            > 0.5 * self._retry.base_timeout
        ):
            # The initiator is still retransmitting the AUTH_REQUEST we
            # already answered: our AUTH_RESPONSE was lost.  Answering
            # again is idempotent on our side.  The age gate keeps
            # benign duplicate copies (the same nonce arrives once per
            # shared code within the handshake window) from triggering
            # spurious retransmissions in fault-free runs.
            mac = MessageAuthenticator(
                session.shared_key, self.config.mac_bits
            )
            if not mac.verify(request.mac_tag, *request.mac_input()):
                self._metrics.inc(_names.DNDP_BAD_MAC_IGNORED)
                return
            self._metrics.inc(_names.RETRY_AUTH_RESPONSE_RETRANSMITS)
            self._sim.process(
                self._retransmit_auth_response(session),
                name=f"auth2-retry@{self.index}",
            )
            return
        acceptable = session.state is SessionState.CONFIRMING or (
            # Both sides raced to the initiator role; the lower ID wins
            # (same tie-break as in _on_confirm) and we serve as the
            # responder despite having sent an AUTH_REQUEST ourselves.
            session.state is SessionState.AWAIT_AUTH_RESPONSE
            and peer < self.node_id
        )
        if not acceptable:
            return
        if self._replay.seen_before("auth1", peer, request.nonce):
            self._metrics.inc(_names.DNDP_REPLAYS_DROPPED)
            return
        self._sim.process(
            self._finish_responder(session, request, sender),
            name=f"auth2@{self.index}",
        )

    def _finish_responder(
        self, session: DNDPSession, request: AuthRequest, sender: int
    ) -> Iterator[object]:
        yield Timeout(self.config.t_key)
        shared = self._key.shared_key(session.peer)
        mac = MessageAuthenticator(shared, self.config.mac_bits)
        if not mac.verify(request.mac_tag, *request.mac_input()):
            # Either a forgery or an overheard AUTH_REQUEST addressed to
            # another holder of the same pool code — indistinguishable
            # cases, so the session stays where it was.
            self._metrics.inc(_names.DNDP_BAD_MAC_IGNORED)
            return
        session.shared_key = shared
        session.peer_nonce = request.nonce
        session.my_nonce = self._nonces.next()
        response = AuthResponse(
            sender=self.node_id,
            nonce=session.my_nonce,
            mac_tag=mac.tag(
                self.node_id.to_bytes(),
                nonce_bytes(session.my_nonce),
            ),
        )
        t_a = self.timing.t_auth_message
        for pool_index in sorted(session.codes):
            if not self.revocation.is_active(pool_index):
                continue
            self._medium.transmit(
                self.index, pool_index, self._to_wire(response), t_a
            )
            yield Timeout(t_a)
        self._establish(session, sender, via_mndp=False)

    def _retransmit_auth_response(
        self, session: DNDPSession
    ) -> Iterator[object]:
        """Rebuild and resend AUTH_RESPONSE for an established session
        whose initiator evidently never received it."""
        assert session.shared_key is not None
        assert session.my_nonce is not None
        mac = MessageAuthenticator(session.shared_key, self.config.mac_bits)
        response = AuthResponse(
            sender=self.node_id,
            nonce=session.my_nonce,
            mac_tag=mac.tag(
                self.node_id.to_bytes(),
                nonce_bytes(session.my_nonce),
            ),
        )
        t_a = self.timing.t_auth_message
        for pool_index in sorted(session.codes):
            if not self.revocation.is_active(pool_index):
                continue
            self._medium.transmit(
                self.index, pool_index, self._to_wire(response), t_a
            )
            yield Timeout(t_a)

    def _on_auth_response(
        self, response: AuthResponse, pool_index: int, sender: int
    ) -> None:
        peer = response.sender
        session = self._sessions.get(peer)
        if (
            session is None
            or session.state is not SessionState.AWAIT_AUTH_RESPONSE
            or session.shared_key is None
        ):
            return
        mac = MessageAuthenticator(session.shared_key, self.config.mac_bits)
        if not mac.verify(response.mac_tag, *response.mac_input()):
            # Forged or overheard (addressed to another node): ignore.
            self._metrics.inc(_names.DNDP_BAD_MAC_IGNORED)
            return
        if self._replay.seen_before("auth2", peer, response.nonce):
            self._metrics.inc(_names.DNDP_REPLAYS_DROPPED)
            return
        session.peer_nonce = response.nonce
        self._establish(session, sender, via_mndp=False)

    def _establish(
        self, session: DNDPSession, sender: int, via_mndp: bool
    ) -> None:
        """Both MACs verified: derive the session code and go live."""
        session.state = SessionState.ESTABLISHED
        session.established_at = self._sim.now
        session.bump_timer()  # cancel any outstanding retry timer
        assert session.my_nonce is not None
        assert session.peer_nonce is not None
        assert session.shared_key is not None
        code = derive_session_code(
            session.shared_key,
            session.my_nonce,
            session.peer_nonce,
            self.config.code_length,
            label=("session", *sorted(
                (self.node_id.value, session.peer.value)
            )),
        )
        session.session_code = code
        self._session_codes[session.peer] = _SessionCodeState(
            peer=session.peer, code=code, confirmed=True
        )
        self._medium.listen(
            self.index, code.code_id, self._on_session_delivery
        )
        self._release_monitors(session)
        self._add_logical(session.peer, sender, via_mndp)
        latency = session.latency
        if latency is not None:
            self._metrics.observe(_names.DNDP_LATENCY, latency)

    def _add_logical(
        self, peer: NodeId, peer_index: int, via_mndp: bool
    ) -> None:
        if peer in self._logical:
            return
        self._logical[peer] = int(peer_index)
        self._peer_index[peer] = int(peer_index)
        self.neighbor_table.touch(peer, self._sim.now)
        if via_mndp:
            self._mndp_count += 1
            self._metrics.inc(_names.MNDP_ESTABLISHED)
        else:
            self._dndp_count += 1
            self._metrics.inc(_names.DNDP_ESTABLISHED)
        if len(self._mndp_queue):
            entries = self._mndp_queue.pop_for(peer, self._sim.now)
            if entries:
                self._sim.process(
                    self._drain_mndp_queue(peer, entries),
                    name=f"mndp-drain@{self.index}",
                )

    def _drain_mndp_queue(
        self, peer: NodeId, entries: Sequence[object]
    ) -> Iterator[object]:
        """Deliver M-NDP frames that waited for a session with ``peer``."""
        for entry in entries:
            if self._session_codes.get(peer) is None:
                # The session vanished again between dequeue and send.
                if self._mndp_queue.requeue(entry, self._sim.now):
                    self._metrics.inc(_names.RETRY_MNDP_REQUEUED)
                else:
                    self._metrics.inc(_names.RETRY_MNDP_DROPPED)
                continue
            self._metrics.inc(_names.RETRY_MNDP_DEQUEUED)
            yield from self._unicast_session(peer, entry.frame)

    def _record_invalid(self, pool_indices: Sequence[int]) -> None:
        """Count an invalid request against each involved pool code."""
        for pool_index in pool_indices:
            if not self.revocation.is_active(pool_index):
                continue
            try:
                revoked_now = self.revocation.record_invalid_request(
                    pool_index
                )
            except RevokedCodeError:
                continue
            self._metrics.inc(_names.REVOCATION_INVALID_REQUESTS)
            if revoked_now:
                self._medium.stop_listening(self.index, pool_index)
                self._realtime.pop(pool_index, None)
                # The refcounts are gone with the code; drop the
                # matching per-session claims so monitor accounting
                # stays conserved.
                for session in self._sessions.values():
                    session.monitored.discard(pool_index)
                self._metrics.inc(_names.REVOCATION_CODES_REVOKED)

    def _on_fake_request(self, pool_index: int) -> None:
        """A DoS fake: one wasted t_ver, one revocation counter tick.

        A code revoked between buffering and processing is no longer
        scanned, so fakes already in the buffer cost nothing more.
        """
        if not self.revocation.is_active(pool_index):
            return
        self._metrics.inc(_names.DOS_VERIFICATIONS)
        # The verification occupies the CPU for t_ver; the counter is
        # charged immediately since ordering does not matter here.
        self._record_invalid([pool_index])

    # ------------------------------------------------------------------
    # neighbor maintenance (Section IV-A's monitoring timeout)
    # ------------------------------------------------------------------

    def expire_stale_neighbors(self, threshold: float) -> List[NodeId]:
        """Drop logical neighbors silent for over ``threshold`` seconds.

        Stops monitoring their session codes and clears the session so
        a returning peer is re-discovered from scratch, as the paper's
        periodic-discovery design intends.  Returns the expired peers.
        """
        stale = [
            peer
            for peer in self.neighbor_table.stale_peers(
                self._sim.now, threshold
            )
            if peer in self._logical
        ]
        for peer in stale:
            self._logical.pop(peer, None)
            state = self._session_codes.pop(peer, None)
            if state is not None:
                self._medium.stop_listening(self.index, state.code.code_id)
            self._sessions.pop(peer, None)
            self.neighbor_table.forget(peer)
            self._metrics.inc(_names.NEIGHBORS_EXPIRED)
        return stale

    def start_maintenance(self, threshold: float, interval: float):
        """Run periodic expiry on the simulated clock."""

        def maintain() -> Iterator[object]:
            while True:
                yield Timeout(interval)
                self.expire_stale_neighbors(threshold)

        return self._sim.process(
            maintain(), name=f"maintenance@{self.index}"
        )

    def send_keepalive(self, peer: NodeId) -> bool:
        """Send a short beacon over the session code shared with
        ``peer`` so it does not expire us; returns False if no session
        exists."""
        state = self._session_codes.get(peer)
        if state is None or not state.confirmed:
            return False
        self._medium.transmit(
            self.index,
            state.code.code_id,
            self._to_wire(Hello(self.node_id)),
            self.timing.t_hello,
        )
        return True

    def gc_stale_sessions(self) -> int:
        """Reclaim dead protocol state so faults degrade gracefully.

        Drops FAILED and stale pending sessions (releasing their
        monitor refcounts and unconfirmed session-code listeners),
        expires queued M-NDP frames past their TTL, and ages out M-NDP
        dedup / return-route entries older than :data:`MNDP_TTL`.  Returns
        the number of sessions collected.
        """
        removed = 0
        for peer, session in list(self._sessions.items()):
            if session.state is SessionState.ESTABLISHED:
                continue
            if (
                session.state is not SessionState.FAILED
                and not self._session_stale(session)
            ):
                continue
            self._drop_session(peer, session)
            removed += 1
        if removed:
            self._metrics.inc(_names.RETRY_SESSIONS_GCED, removed)
        expired = self._mndp_queue.expire(self._sim.now)
        if expired:
            self._metrics.inc(_names.RETRY_MNDP_EXPIRED, expired)
        cutoff = self._sim.now - MNDP_TTL
        stale_keys = [
            key
            for key, recorded in self._mndp_seen.items()
            if recorded < cutoff
        ]
        for key in stale_keys:
            del self._mndp_seen[key]
            self._mndp_return_route.pop(key, None)
        if stale_keys:
            self._metrics.inc(_names.RETRY_MNDP_STATE_PRUNED, len(stale_keys))
        return removed

    def start_session_gc(self, interval: float):
        """Run :meth:`gc_stale_sessions` periodically on the sim clock."""
        if interval <= 0:
            raise ConfigurationError(
                f"gc interval must be positive: {interval}"
            )

        def collect() -> Iterator[object]:
            while True:
                yield Timeout(interval)
                self.gc_stale_sessions()

        return self._sim.process(
            collect(), name=f"session-gc@{self.index}"
        )

    # ------------------------------------------------------------------
    # introspection (used by repro.faults.invariants)
    # ------------------------------------------------------------------

    def sessions(self) -> Dict[NodeId, DNDPSession]:
        """A snapshot of the per-peer session table."""
        return dict(self._sessions)

    def monitor_counts(self) -> Dict[int, int]:
        """Current real-time monitoring refcounts per pool code."""
        return dict(self._realtime)

    def wedged_sessions(self) -> List[Tuple[NodeId, SessionState]]:
        """Non-terminal sessions that outlived the staleness bound.

        A hardened stack should never accumulate these: timeouts move
        them to FAILED and :meth:`gc_stale_sessions` reclaims them.
        """
        return [
            (peer, session.state)
            for peer, session in sorted(self._sessions.items())
            if session.state
            not in (SessionState.ESTABLISHED, SessionState.FAILED)
            and self._session_stale(session)
        ]

    # ------------------------------------------------------------------
    # M-NDP
    # ------------------------------------------------------------------

    def initiate_mndp(self, nu: Optional[int] = None):
        """Send signed M-NDP requests to every logical neighbor."""
        hop_budget = self.config.nu if nu is None else int(nu)
        return self._sim.process(
            self._send_mndp_requests(hop_budget),
            name=f"mndp@{self.index}",
        )

    def _send_mndp_requests(self, hop_budget: int) -> Iterator[object]:
        if not self._logical:
            return
        nonce = self._nonces.next()
        neighbors = tuple(sorted(self._logical))
        position = (
            (float(self._position[0]), float(self._position[1]))
            if self.config.use_gps
            else None
        )
        request = MNDPRequest(
            source=self.node_id,
            source_neighbors=neighbors,
            nonce=nonce,
            hop_budget=hop_budget,
            source_signature=None,  # type: ignore[arg-type]
            source_position=position,
        )
        yield Timeout(self.config.t_sig)
        signature = self._scheme.sign(
            self._key, request.source_signed_bytes()
        )
        request = MNDPRequest(
            source=request.source,
            source_neighbors=request.source_neighbors,
            nonce=request.nonce,
            hop_budget=request.hop_budget,
            source_signature=signature,
            source_position=position,
        )
        self._mndp_seen[(self.node_id, nonce)] = self._sim.now
        self._my_mndp_nonce = nonce
        for peer in sorted(self._logical):
            yield from self._unicast_session(peer, request)

    def _unicast_session(self, peer: NodeId, frame: object) -> Iterator[object]:
        """Send one frame over the session code shared with ``peer``."""
        state = self._session_codes.get(peer)
        if state is None:
            # No live session (expired, crashed peer, churn): park the
            # frame in the TTL'd pending queue instead of dropping it;
            # it drains if the peer is re-discovered in time.
            if peer == self.node_id:
                return
            if self._mndp_queue.push(peer, frame, self._sim.now):
                self._metrics.inc(_names.RETRY_MNDP_QUEUED)
            else:
                self._metrics.inc(_names.RETRY_MNDP_QUEUE_DROPPED)
            return
        bits = frame.wire_bits(self.config) if hasattr(
            frame, "wire_bits"
        ) else self.config.auth_frame_bits
        duration = (
            (1.0 + self.config.mu)
            * bits
            * self.config.code_length
            / self.config.chip_rate
        )
        self._medium.transmit(
            self.index, state.code.code_id, self._to_wire(frame), duration
        )
        yield Timeout(duration)

    def _on_session_delivery(self, tx: Transmission) -> None:
        """A frame arrived over an established session code (real time)."""
        for peer, state in self._session_codes.items():
            if state.code.code_id == tx.code_key:
                self.neighbor_table.touch(peer, self._sim.now)
                break
        frame = self._from_wire(tx.frame)
        if isinstance(frame, MNDPRequest):
            self._sim.process(
                self._handle_mndp_request(frame, tx.sender),
                name=f"mndp-req@{self.index}",
            )
        elif isinstance(frame, MNDPResponse):
            self._sim.process(
                self._handle_mndp_response(frame, tx.sender),
                name=f"mndp-resp@{self.index}",
            )
        elif isinstance(frame, Hello):
            self._on_mndp_hello(frame, tx)
        elif isinstance(frame, Confirm):
            self._on_mndp_confirm(frame, tx)

    def _handle_mndp_request(
        self, request: MNDPRequest, from_index: int
    ) -> Iterator[object]:
        key = (request.source, request.nonce)
        if key in self._mndp_seen:
            return
        self._mndp_seen[key] = self._sim.now
        # Verify the whole chain: one t_ver per signature.
        n_sigs = 1 + len(request.extensions)
        yield Timeout(n_sigs * self.config.t_ver)
        self._metrics.inc(_names.MNDP_VERIFICATIONS, n_sigs)
        if not validate_request_chain(request, self._scheme):
            self._metrics.inc(_names.MNDP_INVALID_REQUESTS)
            return
        relay = request.path_nodes()[-1]
        if relay != self.node_id and relay not in self._logical:
            # The last hop must be our own logical neighbor.
            self._metrics.inc(_names.MNDP_INVALID_REQUESTS)
            return
        self._mndp_return_route[key] = relay
        source = request.source
        known = set(request.source_neighbors)
        for extension in request.extensions:
            known.update(extension.neighbors)
            known.add(extension.node)
        if source != self.node_id and source not in self._logical:
            if self._gps_filtered(request):
                self._metrics.inc(_names.MNDP_GPS_FILTERED)
            else:
                yield from self._respond_to_mndp(request, relay)
        if request.hops_traversed < request.hop_budget:
            yield from self._forward_mndp(request, known)

    def _gps_filtered(self, request: MNDPRequest) -> bool:
        """Section V-C's optional filter: with GPS on, only respond to
        sources whose embedded position is within transmission range."""
        if not self.config.use_gps or request.source_position is None:
            return False
        dx = self._position[0] - request.source_position[0]
        dy = self._position[1] - request.source_position[1]
        return (dx * dx + dy * dy) ** 0.5 > self.config.tx_range

    def _respond_to_mndp(
        self, request: MNDPRequest, relay: NodeId
    ) -> Iterator[object]:
        """We may be a physical neighbor of the source: respond and start
        the session-code HELLO beacon."""
        yield Timeout(self.config.t_key)
        shared = self._key.shared_key(request.source)
        my_nonce = self._nonces.next()
        response = MNDPResponse(
            source=request.source,
            via=relay,
            responder=self.node_id,
            responder_neighbors=tuple(sorted(self._logical)),
            nonce=my_nonce,
            hop_budget=request.hop_budget,
            responder_signature=None,  # type: ignore[arg-type]
        )
        yield Timeout(self.config.t_sig)
        signature = self._scheme.sign(
            self._key, response.responder_signed_bytes()
        )
        response = MNDPResponse(
            source=response.source,
            via=response.via,
            responder=response.responder,
            responder_neighbors=response.responder_neighbors,
            nonce=response.nonce,
            hop_budget=response.hop_budget,
            responder_signature=signature,
        )
        code = derive_session_code(
            shared,
            my_nonce,
            request.nonce,
            self.config.code_length,
            label=("mndp-session", *sorted(
                (self.node_id.value, request.source.value)
            )),
        )
        pending = DNDPSession(
            peer=request.source,
            initiator=False,
            state=SessionState.AWAIT_CONFIRM,
            started_at=self._sim.now,
        )
        pending.shared_key = shared
        pending.my_nonce = my_nonce
        pending.peer_nonce = request.nonce
        pending.session_code = code
        self._sessions[request.source] = pending
        self._session_codes[request.source] = _SessionCodeState(
            peer=request.source, code=code, confirmed=False
        )
        self._medium.listen(
            self.index, code.code_id, self._on_session_delivery
        )
        route = self.node_id if relay == self.node_id else relay
        yield from self._unicast_session(route, response)
        # Beacon HELLO under the fresh session code for tau_h.
        self._sim.process(
            self._mndp_hello_beacon(code, request.hop_budget),
            name=f"mndp-hello@{self.index}",
        )

    def _mndp_hello_beacon(
        self, code: SpreadCode, hop_budget: int
    ) -> Iterator[object]:
        """Repeat ``{HELLO, ID_B}`` under the derived session code for
        ``tau_h``, the worst-case response traversal time."""
        tau_h = max(
            self.timing.theorem4_t_nu(
                hop_budget, self.config.expected_degree
            ),
            self.timing.t_hello,
        )
        deadline = self._sim.now + tau_h
        hello = Hello(self.node_id)
        t_h = self.timing.t_hello
        while self._sim.now < deadline:
            self._medium.transmit(
                self.index, code.code_id, self._to_wire(hello), t_h
            )
            yield Timeout(t_h)

    def _forward_mndp(
        self, request: MNDPRequest, known: Set[NodeId]
    ) -> Iterator[object]:
        """Extend the request with our ID/list/signature and forward to
        logical neighbors not already covered."""
        targets = [peer for peer in sorted(self._logical) if peer not in known]
        if not targets:
            return
        yield Timeout(self.config.t_sig)
        neighbors = tuple(sorted(self._logical))
        base = request.source_signed_bytes()
        for i in range(len(request.extensions)):
            base = request.extensions[i].signed_bytes(base)
        extension_unsigned = MNDPExtension(
            node=self.node_id,
            neighbors=neighbors,
            signature=None,  # type: ignore[arg-type]
        )
        signature = self._scheme.sign(
            self._key, extension_unsigned.signed_bytes(base)
        )
        extension = MNDPExtension(
            node=self.node_id, neighbors=neighbors, signature=signature
        )
        extended = request.extended(extension)
        for peer in targets:
            yield from self._unicast_session(peer, extended)

    def _handle_mndp_response(
        self, response: MNDPResponse, from_index: int
    ) -> Iterator[object]:
        n_sigs = 1 + len(response.extensions)
        yield Timeout(n_sigs * self.config.t_ver)
        self._metrics.inc(_names.MNDP_VERIFICATIONS, n_sigs)
        if not validate_response_chain(response, self._scheme):
            self._metrics.inc(_names.MNDP_INVALID_RESPONSES)
            return
        if response.source != self.node_id:
            # Relay back along the recorded reverse route.
            route = None
            for (source, nonce), relay in self._mndp_return_route.items():
                if source == response.source:
                    route = relay
                    break
            if route is None or route == self.node_id:
                return
            yield Timeout(self.config.t_sig)
            neighbors = tuple(sorted(self._logical))
            base = response.responder_signed_bytes()
            for i in range(len(response.extensions)):
                base = response.extensions[i].signed_bytes(base)
            unsigned = MNDPExtension(
                node=self.node_id,
                neighbors=neighbors,
                signature=None,  # type: ignore[arg-type]
            )
            signature = self._scheme.sign(
                self._key, unsigned.signed_bytes(base)
            )
            extended = response.extended(
                MNDPExtension(
                    node=self.node_id,
                    neighbors=neighbors,
                    signature=signature,
                )
            )
            yield from self._unicast_session(route, extended)
            return
        # We are the source: derive the session code and listen for the
        # responder's HELLO beacon.
        if response.responder in self._logical:
            return
        yield Timeout(self.config.t_key)
        shared = self._key.shared_key(response.responder)
        # Our nonce is the one we put in the request.
        my_nonce = self._find_request_nonce()
        if my_nonce is None:
            return
        code = derive_session_code(
            shared,
            my_nonce,
            response.nonce,
            self.config.code_length,
            label=("mndp-session", *sorted(
                (self.node_id.value, response.responder.value)
            )),
        )
        pending = DNDPSession(
            peer=response.responder,
            initiator=True,
            state=SessionState.AWAIT_CONFIRM,
            started_at=self._sim.now,
        )
        pending.shared_key = shared
        pending.my_nonce = my_nonce
        pending.peer_nonce = response.nonce
        pending.session_code = code
        self._sessions[response.responder] = pending
        self._session_codes[response.responder] = _SessionCodeState(
            peer=response.responder, code=code, confirmed=False
        )
        self._medium.listen(
            self.index, code.code_id, self._on_session_delivery
        )

    def _find_request_nonce(self) -> Optional[int]:
        """The nonce of our *latest* M-NDP request.

        Responses to earlier rounds derive stale session codes, so only
        the current round's nonce is valid.
        """
        return self._my_mndp_nonce

    def _on_mndp_hello(self, hello: Hello, tx: Transmission) -> None:
        """The source heard the responder's beacon: they really are
        physical neighbors.  Confirm and establish."""
        peer = hello.sender
        state = self._session_codes.get(peer)
        session = self._sessions.get(peer)
        if state is None or session is None or state.confirmed:
            return
        if peer in self._logical:
            return
        state.confirmed = True
        confirm = Confirm(self.node_id)
        duration = self.timing.t_confirm
        self._medium.transmit(
            self.index, state.code.code_id, self._to_wire(confirm), duration
        )
        session.state = SessionState.ESTABLISHED
        session.established_at = self._sim.now
        self._add_logical(peer, tx.sender, via_mndp=True)
        self._metrics.observe(
            _names.MNDP_LATENCY, self._sim.now - session.started_at
        )

    def _on_mndp_confirm(self, confirm: Confirm, tx: Transmission) -> None:
        """The responder got the source's CONFIRM: mutual establishment."""
        peer = confirm.sender
        state = self._session_codes.get(peer)
        session = self._sessions.get(peer)
        if state is None or session is None:
            return
        if peer in self._logical:
            return
        state.confirmed = True
        session.state = SessionState.ESTABLISHED
        session.established_at = self._sim.now
        self._add_logical(peer, tx.sender, via_mndp=True)
