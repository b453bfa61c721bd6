"""M-NDP: the multi-hop neighbor discovery protocol (Section V-C).

Layers:

- :class:`LogicalGraph` — the network's logical-neighbor relation, with
  the bounded-hop reachability query M-NDP's success depends on.
- :class:`MNDPSampler` — the Monte Carlo model: two physical neighbors
  that failed D-NDP discover each other iff a jamming-resilient logical
  path of at most ``nu`` hops connects them (M-NDP messages travel over
  session spread codes the jammer cannot know).
- Chain validation helpers for the event-driven implementation: every
  signature in a request/response chain must verify, and consecutive
  path nodes must be mutual logical neighbors per the embedded lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.messages import MNDPRequest, MNDPResponse
from repro.crypto.signatures import SignatureScheme
from repro.errors import ConfigurationError
from repro.obs import current as _metrics
from repro.obs import names as _names
from repro.utils.validation import check_positive

__all__ = [
    "COMPUTE_BACKENDS",
    "LogicalGraph",
    "MNDPSampler",
    "PendingFrame",
    "PendingRequestQueue",
    "validate_request_chain",
    "validate_response_chain",
]

# Shared by every experiment-layer component with a reference/vectorized
# implementation pair: "vectorized" is the fast path, "reference" the
# original loops the fast path is equality-tested against.
COMPUTE_BACKENDS = ("reference", "vectorized")

Pair = Tuple[int, int]


def _ordered(a: int, b: int) -> Pair:
    return (a, b) if a <= b else (b, a)


def _pair_array(pairs: Iterable[Pair]) -> np.ndarray:
    """``pairs`` as a ``(k, 2)`` int64 array, or
    :class:`ConfigurationError` for any other shape or a non-integral
    value.  An integer ``(k, 2)`` array passes through uncopied."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    try:
        arr = np.asarray(pairs)
    except ValueError as exc:
        raise ConfigurationError(f"pairs must be (a, b) rows: {exc}") from None
    if arr.shape == (0,):
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigurationError(
            f"pairs must have shape (k, 2), got {arr.shape}"
        )
    if arr.dtype.kind not in "iu":
        integral = (
            arr.dtype.kind == "f"
            and np.isfinite(arr).all()
            and np.array_equal(arr, np.trunc(arr))
        )
        if not integral:
            raise ConfigurationError(
                f"pairs must hold integer node indices, got {arr.dtype}"
            )
    return arr.astype(np.int64, copy=False)


class LogicalGraph:
    """The logical-neighbor graph over node indices ``[0, n_nodes)``.

    Links are logged as they arrive; the networkx graph that answers
    graph queries is only built on the first query, and bulk inserts
    via :meth:`add_links` are pushed into it only when a query needs
    them.  The vectorized M-NDP closure reads :meth:`edge_array`
    instead, so a snapshot's hot path never builds the networkx graph.
    """

    def __init__(self, n_nodes: int) -> None:
        check_positive("n_nodes", n_nodes)
        self._n_nodes = int(n_nodes)
        # The networkx graph, built by _flush on the first graph query.
        self._graph: Optional[Any] = None
        # Every edge ever recorded: (k, 2) chunks from add_links plus a
        # list of single pairs from add_link (duplicates are harmless).
        self._chunks: List[np.ndarray] = []
        self._singles: List[Pair] = []
        self._n_flushed = 0

    def _flush(self) -> Any:
        """The networkx graph with every recorded link pushed in.

        Single links go in when added once the graph exists; before
        that they are replayed, ahead of the buffered chunks, when the
        graph is built, which is the order the links would have had in
        an eagerly built graph.
        """
        if self._graph is None:
            import networkx as nx

            self._graph = nx.Graph()
            self._graph.add_nodes_from(range(self._n_nodes))
            self._graph.add_edges_from(self._singles)
        while self._n_flushed < len(self._chunks):
            chunk = self._chunks[self._n_flushed]
            self._graph.add_edges_from(map(tuple, chunk.tolist()))
            self._n_flushed += 1
        return self._graph

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._n_nodes

    @property
    def n_edges(self) -> int:
        """Number of logical-neighbor links."""
        return self._flush().number_of_edges()

    def add_link(self, a: int, b: int) -> None:
        """Record that ``a`` and ``b`` are logical neighbors."""
        a, b = int(a), int(b)
        if a == b:
            raise ConfigurationError("a node is not its own neighbor")
        self._check_range(min(a, b), max(a, b))
        if self._graph is not None:
            self._graph.add_edge(a, b)
        self._singles.append((a, b))

    def add_links(self, pairs: Iterable[Pair]) -> None:
        """Record many logical links in one pass.

        Equivalent to calling :meth:`add_link` per pair, minus the
        per-call overhead — the hot path for building a snapshot's
        initial graph from thousands of D-NDP outcomes.  Accepts any
        iterable of integer pairs, including a ``(k, 2)`` integer
        array; other shapes and non-integral values raise
        :class:`ConfigurationError`.
        """
        arr = _pair_array(pairs)
        if arr.size == 0:
            return
        if bool((arr[:, 0] == arr[:, 1]).any()):
            raise ConfigurationError("a node is not its own neighbor")
        self._check_range(int(arr.min()), int(arr.max()))
        self._chunks.append(arr)

    def _check_range(self, low: int, high: int) -> None:
        """Reject links whose smallest or largest node index lies
        outside ``[0, n_nodes)``."""
        for node in (low, high):
            if not 0 <= node < self._n_nodes:
                raise ConfigurationError(
                    f"node index {node} out of range [0, {self._n_nodes})"
                )

    def edge_array(self) -> np.ndarray:
        """Every recorded link as a ``(k, 2)`` int array.

        May contain duplicates (re-adding a link is a no-op on the
        graph but stays in the log); consumers scatter it into an
        adjacency structure, where duplicates are harmless.
        """
        parts = list(self._chunks)
        if self._singles:
            parts.append(np.array(self._singles, dtype=np.int64))
        if not parts:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(parts, axis=0)

    def has_link(self, a: int, b: int) -> bool:
        """Whether the pair already discovered each other."""
        return self._flush().has_edge(int(a), int(b))

    def neighbors(self, node: int) -> Set[int]:
        """Logical neighbors of ``node``."""
        return set(self._flush().neighbors(int(node)))

    def edges(self) -> Set[Pair]:
        """All logical links as ordered pairs."""
        return {_ordered(a, b) for a, b in self._flush().edges()}

    def within_hops(self, source: int, max_hops: int) -> Dict[int, int]:
        """Nodes reachable from ``source`` in at most ``max_hops`` logical
        hops, mapped to their distance."""
        import networkx as nx

        check_positive("max_hops", max_hops)
        return dict(
            nx.single_source_shortest_path_length(
                self._flush(), int(source), cutoff=int(max_hops)
            )
        )

    def hop_distance(self, a: int, b: int, max_hops: int) -> int:
        """Logical distance between ``a`` and ``b``, or 0 if unreachable
        within ``max_hops`` (0 is never a valid distance for a != b)."""
        reachable = self.within_hops(a, max_hops)
        return reachable.get(int(b), 0)

    def copy(self) -> "LogicalGraph":
        """An independent copy."""
        clone = LogicalGraph(self.n_nodes)
        if self._graph is not None:
            clone._graph = self._flush().copy()
        clone._chunks = list(self._chunks)
        clone._singles = list(self._singles)
        clone._n_flushed = self._n_flushed
        return clone


# Pairs per chunk of the ball-intersection test: two (chunk, n/64)
# uint64 gathers stay cache-sized instead of spanning every pair.
_MEET_CHUNK = 1024


def _strictly_increasing(keys: np.ndarray) -> bool:
    """Whether ``keys`` is sorted with no repeats."""
    return bool((keys[1:] > keys[:-1]).all())


def _neighbor_table(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Directed links ``src[i] -> dst[i]`` as an ``(n, max_degree)``
    table, padded with the sentinel node ``n``."""
    order = np.argsort(src)
    src, dst = src[order], dst[order]
    degree = np.bincount(src, minlength=n)
    table = np.full((n, int(degree.max(initial=0))), n, dtype=np.int64)
    starts = np.cumsum(degree) - degree
    table[src, np.arange(src.size) - starts[src]] = dst
    return table


def _grow(ball: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``B_{r+1}[v] = B_r[v] | OR_k B_r[table[v, k]]`` for every node;
    the sentinel row stays zero.  Costs ``max_degree * n * n/64`` word
    ORs, one gather per table column."""
    grown = ball.copy()
    body = grown[:-1]
    for column in table.T:
        body |= ball[column]
    return grown


def _meets(
    outer: np.ndarray, inner: np.ndarray, a_arr: np.ndarray, b_arr: np.ndarray
) -> np.ndarray:
    """Mask of pairs whose balls ``outer[a]`` and ``inner[b]`` share a
    node."""
    hit = np.empty(a_arr.size, dtype=bool)
    for start in range(0, a_arr.size, _MEET_CHUNK):
        stop = start + _MEET_CHUNK
        shared = outer[a_arr[start:stop]]
        shared &= inner[b_arr[start:stop]]
        hit[start:stop] = np.bitwise_or.reduce(shared, axis=1) != 0
    return hit


class MNDPSampler:
    """Monte Carlo M-NDP: bounded-hop closure of the logical graph.

    Parameters
    ----------
    nu:
        Maximum hops an M-NDP request may traverse.
    exclude:
        Node indices that do not relay (e.g. when modelling compromised
        nodes refusing to cooperate — the paper keeps them in, so the
        default is empty).
    backend:
        ``"vectorized"`` (default) answers each round by intersecting
        packed hop balls shared by every pair; ``"reference"`` keeps the
        original per-source networkx shortest-path queries.  Both find
        every pair at the same hop distance, so they return the same
        pairs and tally the same ``mndp.recovery_hops`` histogram.
    """

    def __init__(
        self,
        nu: int,
        exclude: Iterable[int] = (),
        backend: str = "vectorized",
    ) -> None:
        check_positive("nu", nu)
        if backend not in COMPUTE_BACKENDS:
            raise ConfigurationError(
                f"mndp backend must be one of {COMPUTE_BACKENDS}, "
                f"got {backend!r}"
            )
        self._nu = int(nu)
        self._exclude = frozenset(int(x) for x in exclude)
        self._backend = backend

    @property
    def nu(self) -> int:
        """The hop budget."""
        return self._nu

    @property
    def excluded(self) -> FrozenSet[int]:
        """Nodes that refuse to relay."""
        return self._exclude

    @property
    def backend(self) -> str:
        """The closure implementation in use."""
        return self._backend

    def discover(
        self,
        physical_pairs: Sequence[Pair],
        logical: LogicalGraph,
        rounds: int = 1,
    ) -> np.ndarray:
        """Run M-NDP over all not-yet-logical physical pairs.

        One round checks every remaining pair against the *current*
        logical graph and then commits all new links at once (matching
        Theorem 3's "no nodes have performed M-NDP yet" assumption for
        ``rounds=1``).  More rounds model the periodic re-initiation the
        paper describes: links formed by M-NDP enable further pairs.
        Returns all pairs newly discovered across the rounds as a
        ``(k, 2)`` int64 array of ``(a, b), a < b`` rows sorted by
        ``(a, b)``, like :meth:`RectangularField.neighbor_pairs`.
        ``physical_pairs`` may be a sequence of integer pairs or a
        ``(k, 2)`` integer array; another shape, a non-integral value,
        or a node index outside ``[0, n_nodes)`` raises
        :class:`ConfigurationError`.
        """
        check_positive("rounds", rounds)
        raw = _pair_array(physical_pairs)
        if raw.size:
            logical._check_range(int(raw.min()), int(raw.max()))
        registry = _metrics()
        if self._backend == "vectorized":
            return self._discover_vectorized(raw, logical, rounds, registry)
        discovered: Set[Pair] = set()
        working = logical
        for round_index in range(rounds):
            pending = [
                _ordered(a, b)
                for a, b in raw.tolist()
                if not working.has_link(a, b)
            ]
            new_links = self._one_round(pending, working)
            if registry.enabled:
                registry.inc(_names.MNDP_ROUNDS)
                registry.inc(_names.MNDP_PAIRS_ATTEMPTED, len(pending))
                for hops in new_links.values():
                    registry.observe(_names.MNDP_RECOVERY_HOPS, hops)
            if not new_links:
                break
            discovered.update(new_links)
            if round_index == rounds - 1:
                # The updated graph would never be read again; skip the
                # copy + commit (the caller's graph is left untouched
                # either way).
                break
            working = working.copy() if working is logical else working
            for a, b in new_links:
                working.add_link(a, b)
        if registry.enabled:
            registry.inc(_names.MNDP_PAIRS_RECOVERED, len(discovered))
        return np.array(sorted(discovered), dtype=np.int64).reshape(-1, 2)

    def _discover_vectorized(
        self,
        raw: np.ndarray,
        logical: LogicalGraph,
        rounds: int,
        registry,
    ) -> np.ndarray:
        """Array-native form of the reference :meth:`discover` loop.

        Links are kept as one sorted array of pair keys ``a * n + b``
        (``a < b``), closed by the sentinel key ``n * n`` so a sorted
        search always lands on an entry.  Each round screens the
        still-unlinked pairs against it, resolves their closure
        distances, and merges the new links in — no graph copies, no
        per-pair ``has_link`` queries.  Metrics, results, and
        first-occurrence pair deduplication match the reference.  Sorted,
        duplicate-free keys (what :meth:`RectangularField.neighbor_pairs`
        and a snapshot's :meth:`LogicalGraph.add_links` produce) skip
        both ``np.unique`` passes.
        """
        n = logical.n_nodes
        a_all = np.minimum(raw[:, 0], raw[:, 1])
        b_all = np.maximum(raw[:, 0], raw[:, 1])
        keys_all = a_all * n + b_all
        edges = logical.edge_array()
        linked = np.append(
            np.minimum(edges[:, 0], edges[:, 1]) * n
            + np.maximum(edges[:, 0], edges[:, 1]),
            n * n,
        )
        if not _strictly_increasing(linked):
            linked = np.unique(linked)
        excluded = np.zeros(n, dtype=bool)
        excluded[[x for x in self._exclude if 0 <= x < n]] = True
        # Excluded endpoints never discover anyone, and a node is never
        # its own neighbor (the reference finds it at distance 0).
        valid_all = (a_all != b_all) & ~(excluded[a_all] | excluded[b_all])
        found_keys: List[np.ndarray] = []
        for round_index in range(rounds):
            pos = np.searchsorted(linked, keys_all)
            pend = np.flatnonzero(linked[pos] != keys_all)
            # The reference keys new links by pair, so duplicates in
            # physical_pairs resolve (and observe metrics) only once.
            pend_unique = pend
            if not _strictly_increasing(keys_all[pend]):
                first = np.unique(keys_all[pend], return_index=True)[1]
                if first.size != pend.size:
                    first.sort()
                    pend_unique = pend[first]
            lo, hi = np.divmod(linked[:-1], n)
            relay = ~(excluded[lo] | excluded[hi])
            dist = self._closure_distances(
                a_all[pend_unique],
                b_all[pend_unique],
                valid_all[pend_unique],
                lo[relay],
                hi[relay],
                n,
            )
            found = dist > 0
            new_keys = keys_all[pend_unique[found]]
            if registry.enabled:
                registry.inc(_names.MNDP_ROUNDS)
                registry.inc(_names.MNDP_PAIRS_ATTEMPTED, int(pend.size))
                hops, counts = np.unique(dist[found], return_counts=True)
                for value, count in zip(hops.tolist(), counts.tolist()):
                    registry.observe(_names.MNDP_RECOVERY_HOPS, value, count)
            if new_keys.size == 0:
                break
            found_keys.append(new_keys)
            if round_index == rounds - 1:
                break
            linked = np.union1d(linked, new_keys)
        # A recovered pair joins ``linked``, so no key repeats across
        # rounds.
        keys = np.sort(np.concatenate(found_keys or [keys_all[:0]]))
        if registry.enabled:
            registry.inc(_names.MNDP_PAIRS_RECOVERED, int(keys.size))
        return np.stack(divmod(keys, n), axis=1)

    def _closure_distances(
        self,
        a_arr: np.ndarray,
        b_arr: np.ndarray,
        valid: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        n: int,
    ) -> np.ndarray:
        """Hop distances (0 = unreachable) for unlinked pairs over the
        relay links ``lo[i] -- hi[i]``, by meeting hop balls halfway.

        ``balls[r - 1]`` packs every node's closed ``r``-hop ball into
        ``uint64`` words, plus an all-zero sentinel row ``n``.  A pair
        unresolved below level ``L`` sits at distance ``L`` iff
        ``B_ceil(L/2)[a] & B_floor(L/2)[b]`` is non-zero.  The pairs are
        unlinked, so none sits at distance 1 and the sweep starts at 2.
        Balls grow one hop at a time, only as deep as a level needs.
        """
        dist = np.zeros(a_arr.size, dtype=np.int64)
        remaining = np.flatnonzero(valid)
        if self._nu < 2 or remaining.size == 0:
            return dist
        nodes = np.arange(n)
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        ball = np.zeros((n + 1, (n + 63) // 64), dtype=np.uint64)
        members = np.concatenate([dst, nodes])
        np.bitwise_or.at(
            ball,
            (np.concatenate([src, nodes]), members >> 6),
            np.left_shift(np.uint64(1), (members & 63).astype(np.uint64)),
        )
        balls = [ball]
        table = None
        for level in range(2, self._nu + 1):
            if remaining.size == 0:
                break
            if (level + 1) // 2 > len(balls):
                if table is None:
                    table = _neighbor_table(src, dst, n)
                balls.append(_grow(balls[-1], table))
            hit = _meets(
                balls[(level + 1) // 2 - 1],
                balls[level // 2 - 1],
                a_arr[remaining],
                b_arr[remaining],
            )
            dist[remaining[hit]] = level
            remaining = remaining[~hit]
        return dist

    def _one_round(
        self, pending: List[Pair], logical: LogicalGraph
    ) -> Dict[Pair, int]:
        """Pairs connectable by a ``<= nu``-hop path in the current
        graph, mapped to the hop distance of that path (in ``pending``
        order), by per-source networkx shortest-path queries."""
        sources = {a for a, _ in pending}
        reach: Dict[int, Dict[int, int]] = {}
        graph = logical
        if self._exclude:
            graph = self._without_excluded(logical)
        for source in sources:
            if source in self._exclude:
                reach[source] = {}
                continue
            reach[source] = graph.within_hops(source, self._nu)
        return {
            (a, b): reach[a][b]
            for a, b in pending
            if b not in self._exclude and reach[a].get(b, 0) > 0
        }

    def _without_excluded(self, logical: LogicalGraph) -> LogicalGraph:
        """The logical graph with excluded nodes unable to *relay*.

        Excluded nodes keep their direct links but cannot sit inside a
        path, so we drop them entirely and handle endpoint cases in the
        caller (an excluded endpoint never discovers anyone via M-NDP).
        """
        clone = LogicalGraph(logical.n_nodes)
        for a, b in logical.edges():
            if a in self._exclude or b in self._exclude:
                continue
            clone.add_link(a, b)
        return clone


def validate_request_chain(
    request: MNDPRequest, scheme: SignatureScheme
) -> bool:
    """Verify every signature and the path consistency of a request.

    Checks (per Section V-C's receiver procedure):

    1. the source signature verifies under ``ID_A``;
    2. each extension's signature verifies under its relay's ID;
    3. each relay appears in the *previous* hop's neighbor list — i.e.
       the embedded lists witness a legitimate logical path.
    """
    if not scheme.verify(
        request.source,
        request.source_signed_bytes(),
        request.source_signature,
    ):
        return False
    previous_neighbors = set(request.source_neighbors)
    for index, extension in enumerate(request.extensions):
        if not scheme.verify(
            extension.node,
            request.extension_signed_bytes(index),
            extension.signature,
        ):
            return False
        if extension.node not in previous_neighbors:
            return False
        previous_neighbors = set(extension.neighbors)
    return True


def validate_response_chain(
    response: MNDPResponse, scheme: SignatureScheme
) -> bool:
    """Verify every signature in an M-NDP response chain."""
    if not scheme.verify(
        response.responder,
        response.responder_signed_bytes(),
        response.responder_signature,
    ):
        return False
    for index, extension in enumerate(response.extensions):
        if not scheme.verify(
            extension.node,
            response.extension_signed_bytes(index),
            extension.signature,
        ):
            return False
    return True


@dataclass
class PendingFrame:
    """One M-NDP frame waiting for a session route to (re)appear."""

    peer: object
    frame: object
    enqueued_at: float
    requeues: int = 0


class PendingRequestQueue:
    """A bounded TTL queue for M-NDP frames without a live route.

    The event-driven M-NDP silently discarded any frame whose target
    session had expired or not yet confirmed; under churn that loses
    whole discovery rounds.  Nodes now park such frames here: entries
    are drained when the peer's session (re)establishes, expire after
    ``ttl`` simulated seconds, may be requeued at most ``max_requeues``
    times, and the queue never exceeds ``capacity`` entries.
    """

    def __init__(
        self, ttl: float, max_requeues: int, capacity: int
    ) -> None:
        check_positive("ttl", ttl)
        if max_requeues < 0:
            raise ConfigurationError(
                f"max_requeues must be non-negative: {max_requeues}"
            )
        check_positive("capacity", capacity)
        self._ttl = float(ttl)
        self._max_requeues = int(max_requeues)
        self._capacity = int(capacity)
        self._entries: List[PendingFrame] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def ttl(self) -> float:
        """Entry lifetime in simulated seconds."""
        return self._ttl

    def push(self, peer: object, frame: object, now: float) -> bool:
        """Queue a frame; False (dropped) when the queue is full."""
        if len(self._entries) >= self._capacity:
            return False
        self._entries.append(PendingFrame(peer, frame, float(now)))
        return True

    def requeue(self, entry: PendingFrame, now: float) -> bool:
        """Put a popped entry back after its route vanished again.

        False (dropped) once the entry exhausted its requeue budget,
        outlived its TTL, or the queue is full.
        """
        if entry.requeues >= self._max_requeues:
            return False
        if now - entry.enqueued_at > self._ttl:
            return False
        if len(self._entries) >= self._capacity:
            return False
        entry.requeues += 1
        self._entries.append(entry)
        return True

    def pop_for(self, peer: object, now: float) -> List[PendingFrame]:
        """Remove and return the live entries addressed to ``peer``.

        Entries already past their TTL are not returned (they die on
        the next :meth:`expire` sweep).
        """
        matched: List[PendingFrame] = []
        kept: List[PendingFrame] = []
        for entry in self._entries:
            if (
                entry.peer == peer
                and now - entry.enqueued_at <= self._ttl
            ):
                matched.append(entry)
            else:
                kept.append(entry)
        self._entries = kept
        return matched

    def expire(self, now: float) -> int:
        """Drop entries older than the TTL; returns how many died."""
        kept = [
            entry
            for entry in self._entries
            if now - entry.enqueued_at <= self._ttl
        ]
        expired = len(self._entries) - len(kept)
        self._entries = kept
        return expired
