"""M-NDP: the multi-hop neighbor discovery protocol (Section V-C).

Layers:

- :class:`LogicalGraph` — the network's logical-neighbor relation, with
  the bounded-hop reachability query M-NDP's success depends on.
- :class:`MNDPSampler` — the Monte Carlo model: two physical neighbors
  that failed D-NDP discover each other iff a jamming-resilient logical
  path of at most ``nu`` hops connects them (M-NDP messages travel over
  session spread codes the jammer cannot know).
- :class:`HopClosure` — one round's hop distances, resolved level by
  level; a larger ``nu`` resumes it, so the ``nu`` points of one run
  share it.
- Chain validation helpers for the event-driven implementation: every
  signature in a request/response chain must verify, and consecutive
  path nodes must be mutual logical neighbors per the embedded lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.messages import MNDPRequest, MNDPResponse
from repro.crypto.signatures import SignatureScheme
from repro.errors import ConfigurationError
from repro.obs import current as _metrics
from repro.obs import names as _names
from repro.utils.validation import check_positive

__all__ = [
    "COMPUTE_BACKENDS",
    "HopClosure",
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


# Pairs per chunk of the ball-intersection test: two (chunk, m/64)
# uint64 gathers stay cache-sized instead of spanning every pair.
_MEET_CHUNK = 1024


def _strictly_increasing(keys: np.ndarray) -> bool:
    """Whether ``keys`` is sorted with no repeats."""
    return bool((keys[1:] > keys[:-1]).all())


def _narrow(values: np.ndarray, bound: int) -> np.ndarray:
    """``values``, all in ``[0, bound]``, in the narrowest unsigned
    dtype that holds ``bound``."""
    return values.astype(np.min_scalar_type(bound), copy=False)


def _neighbor_table(
    lo: np.ndarray, hi: np.ndarray, degree: np.ndarray
) -> List[np.ndarray]:
    """The links ``lo[i] -- hi[i]`` over nodes ``[0, m)`` whose degrees
    ``degree`` do not increase, as columns: column ``k`` holds the
    ``k``-th neighbor of every node with more than ``k`` links, which
    is a prefix of the nodes."""
    src = np.concatenate([lo, hi])
    # A stable sort of narrow keys is a radix sort.
    dst = np.take(np.concatenate([hi, lo]), np.argsort(src, kind="stable"))
    starts = np.cumsum(degree) - degree
    # prefix[k]: how many nodes have more than k links.
    prefix = degree.size - np.cumsum(np.bincount(degree))
    return [
        np.take(dst, starts[:count] + k)
        for k, count in enumerate(prefix[: degree[0]].tolist())
    ]


def _grow(ball: np.ndarray, table: List[np.ndarray]) -> np.ndarray:
    """``B_{r+1}[v] = B_r[v] | OR_k B_r[table[k][v]]`` for every node.
    Costs one ``m/64``-word gather and OR per directed link."""
    grown = ball.copy()
    for column in table:
        grown[: column.size] |= np.take(ball, column, axis=0)
    return grown


def _meets(
    outer: np.ndarray, inner: np.ndarray, a_arr: np.ndarray, b_arr: np.ndarray
) -> np.ndarray:
    """Mask of pairs whose balls ``outer[a]`` and ``inner[b]`` share a
    node."""
    hit = np.empty(a_arr.size, dtype=bool)
    for start in range(0, a_arr.size, _MEET_CHUNK):
        stop = start + _MEET_CHUNK
        shared = np.take(outer, a_arr[start:stop], axis=0)
        shared &= np.take(inner, b_arr[start:stop], axis=0)
        hit[start:stop] = np.bitwise_or.reduce(shared, axis=1) != 0
    return hit


class HopClosure:
    """Hop distances of unlinked pairs over relay links, resolved one
    level at a time and resumable.

    A node on no relay link reaches nobody, so a pair with such an
    endpoint (or with ``a == b``) never enters the sweep.  The ``m``
    relaying nodes are relabelled ``[0, m)`` by descending relay degree,
    and ``B_r`` packs each one's closed ``r``-hop ball into ``uint64``
    words.  A pair unresolved below level ``L`` sits at distance ``L``
    iff ``B_ceil(L/2)[a] & B_floor(L/2)[b]`` is non-zero.  The pairs are
    unlinked, so none sits at distance 1 and the sweep starts at 2.
    Growing a ball ORs each node's ``k``-th neighbor's row into the
    prefix of nodes with more than ``k`` links, so the work follows the
    links, not ``m`` times the largest degree.

    Levels ``2k`` and ``2k + 1`` read only ``B_k`` and ``B_(k+1)``, so
    the closure holds one ball, the largest grown so far, next to the
    level reached, the distances resolved, the pairs still unresolved
    and the relay links (as a neighbor table once a ball has to grow),
    all in the narrowest dtypes.  :meth:`distances` grows balls only
    past the level already reached and answers a smaller ``nu`` from
    what is resolved; once no pair is left unresolved, the ball and the
    links are dropped.

    Parameters
    ----------
    a, b:
        The pairs' endpoints.
    lo, hi:
        The relay links ``lo[i] -- hi[i]``.
    n:
        Node count; every index lies in ``[0, n)``.
    index:
        Each pair's row in the physical pair array it was taken from
        (default: its own position); :meth:`tally` reports these.
    attempted:
        Pairs the round attempts, duplicates included (default: the
        pair count), which :meth:`tally` adds to
        ``mndp.pairs_attempted``.
    """

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        n: int,
        index: Optional[np.ndarray] = None,
        attempted: Optional[int] = None,
    ) -> None:
        count = a.size
        if index is None:
            index = np.arange(count)
        self._index = _narrow(index, int(index.max(initial=0)))
        self._attempted = count if attempted is None else int(attempted)
        self._dist = np.zeros(count, dtype=np.min_scalar_type(n))
        # Pairs resolved at each level, indexed by level.
        self._hits = [0, 0]
        self._level = 1
        degree = np.bincount(np.concatenate([lo, hi]), minlength=n)
        remaining = np.flatnonzero(
            (a != b) & (np.take(degree, a) > 0) & (np.take(degree, b) > 0)
        )
        self._remaining = _narrow(remaining, count)
        self._ends: Optional[np.ndarray] = None
        self._links: Optional[np.ndarray] = None
        self._degree: Optional[np.ndarray] = None
        if remaining.size:
            order = np.argsort(-degree, kind="stable")
            self._degree = np.take(degree, order[: np.count_nonzero(degree)])
            label = np.empty(n, dtype=np.intp)
            label[order] = np.arange(n)
            m = self._degree.size
            self._ends = _narrow(
                np.take(
                    label,
                    np.stack([np.take(a, remaining), np.take(b, remaining)]),
                ),
                m,
            )
            self._links = _narrow(np.take(label, np.stack([lo, hi])), m)
        self._table: Optional[List[np.ndarray]] = None
        self._ball: Optional[np.ndarray] = None
        self._radius = 0

    @property
    def level(self) -> int:
        """The largest hop distance resolved so far."""
        return self._level

    def distances(self, nu: int) -> np.ndarray:
        """Each pair's hop distance if it is at most ``nu``, else 0."""
        self._resolve(nu)
        return np.where(self._dist <= nu, self._dist, 0)

    def tally(self, nu: int, registry: Any) -> np.ndarray:
        """One M-NDP round at hop budget ``nu``: the rows (``index``)
        of the pairs it recovers, in pair order.

        Records the round in ``registry``: ``mndp.rounds``,
        ``mndp.pairs_attempted``, ``mndp.pairs_recovered`` and one
        ``mndp.recovery_hops`` tally per distance.
        """
        self._resolve(nu)
        dist = self._dist
        found = np.compress((dist != 0) & (dist <= nu), self._index)
        if registry.enabled:
            registry.inc(_names.MNDP_ROUNDS)
            registry.inc(_names.MNDP_PAIRS_ATTEMPTED, self._attempted)
            registry.inc(_names.MNDP_PAIRS_RECOVERED, int(found.size))
            for level in range(2, min(nu, self._level) + 1):
                if self._hits[level]:
                    registry.observe(
                        _names.MNDP_RECOVERY_HOPS, level, self._hits[level]
                    )
        return found

    def _resolve(self, nu: int) -> None:
        """Resolve every level up to ``nu`` not resolved yet."""
        while self._level < nu and self._remaining.size:
            assert self._ends is not None and self._degree is not None
            level = self._level + 1
            if self._ball is None:
                self._ball, self._radius = self._first_ball(), 1
            inner = self._ball
            if (level + 1) // 2 > self._radius:
                if self._table is None:
                    assert self._links is not None
                    lo, hi = self._links
                    self._table = _neighbor_table(lo, hi, self._degree)
                    self._links = None
                self._ball = _grow(inner, self._table)
                self._radius += 1
            hit = _meets(self._ball, inner, self._ends[0], self._ends[1])
            self._dist[np.compress(hit, self._remaining)] = level
            self._hits.append(int(np.count_nonzero(hit)))
            miss = ~hit
            self._remaining = np.compress(miss, self._remaining)
            self._ends = np.compress(miss, self._ends, axis=1)
            self._level = level
        if not self._remaining.size:
            self._links = self._degree = self._table = self._ball = None

    def _first_ball(self) -> np.ndarray:
        """``B_1``: every relaying node with its relay neighbors."""
        assert self._links is not None and self._degree is not None
        m = self._degree.size
        lo, hi = self._links
        nodes = np.arange(m)
        members = np.concatenate([hi, lo, nodes])
        ball = np.zeros((m, (m + 63) // 64), dtype=np.uint64)
        np.bitwise_or.at(
            ball,
            (np.concatenate([lo, hi, nodes]), members >> 6),
            np.left_shift(np.uint64(1), (members & 63).astype(np.uint64)),
        )
        return ball


class _Screen:
    """The physical pairs of one :meth:`MNDPSampler.discover` call as
    pair keys ``a * n + b`` (``a < b``), screened round by round against
    the sorted keys of the links so far.

    The link keys end in the sentinel ``n * n``, so a sorted search
    always lands on an entry.  Sorted, duplicate-free keys (what
    :meth:`RectangularField.neighbor_pairs` and a snapshot's
    :meth:`LogicalGraph.add_links` produce) skip both ``np.unique``
    passes.
    """

    def __init__(self, raw: np.ndarray, logical: LogicalGraph) -> None:
        n = logical.n_nodes
        edges = logical.edge_array()
        self.n = n
        self.a = np.minimum(raw[:, 0], raw[:, 1])
        self.b = np.maximum(raw[:, 0], raw[:, 1])
        self.keys = self.a * n + self.b
        linked = np.append(
            np.minimum(edges[:, 0], edges[:, 1]) * n
            + np.maximum(edges[:, 0], edges[:, 1]),
            n * n,
        )
        if not _strictly_increasing(linked):
            linked = np.unique(linked)
        self.linked = linked

    def closure(self) -> HopClosure:
        """The closure of the pairs not linked yet (deduplicated, with
        their rows) over the links so far."""
        pos = np.searchsorted(self.linked, self.keys)
        pend = np.flatnonzero(self.linked[pos] != self.keys)
        # The reference keys new links by pair, so duplicates in the
        # physical pairs resolve (and observe metrics) only once.
        pend_unique = pend
        if not _strictly_increasing(self.keys[pend]):
            first = np.unique(self.keys[pend], return_index=True)[1]
            if first.size != pend.size:
                first.sort()
                pend_unique = pend[first]
        lo, hi = np.divmod(self.linked[:-1], self.n)
        return HopClosure(
            self.a[pend_unique],
            self.b[pend_unique],
            lo,
            hi,
            self.n,
            index=pend_unique,
            attempted=int(pend.size),
        )

    def link(self, keys: np.ndarray) -> None:
        """Add the links ``keys`` for the next round's screening."""
        self.linked = np.union1d(self.linked, keys)


class MNDPSampler:
    """Monte Carlo M-NDP: bounded-hop closure of the logical graph.

    Parameters
    ----------
    nu:
        Maximum hops an M-NDP request may traverse.
    backend:
        ``"vectorized"`` (default) answers each round by intersecting
        packed hop balls shared by every pair; ``"reference"`` keeps the
        original per-source networkx shortest-path queries.  Both find
        every pair at the same hop distance, so they return the same
        pairs and tally the same ``mndp.recovery_hops`` histogram.
    """

    def __init__(self, nu: int, backend: str = "vectorized") -> None:
        check_positive("nu", nu)
        if backend not in COMPUTE_BACKENDS:
            raise ConfigurationError(
                f"mndp backend must be one of {COMPUTE_BACKENDS}, "
                f"got {backend!r}"
            )
        self._nu = int(nu)
        self._backend = backend

    @property
    def nu(self) -> int:
        """The hop budget."""
        return self._nu

    @property
    def backend(self) -> str:
        """The closure implementation in use."""
        return self._backend

    def discover(
        self,
        physical_pairs: Sequence[Pair],
        logical: Optional[LogicalGraph],
        rounds: int = 1,
        closure: Optional[HopClosure] = None,
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

        ``closure`` is a :class:`HopClosure` of the pairs not linked yet
        over the links, whose ``index`` gives each pair's row in
        ``physical_pairs``: the one round then tallies it instead of
        screening the pairs against ``logical``, which is not read (and
        may be ``None``), and grows only the hop balls past the level it
        reached.  It needs ``rounds == 1``, the vectorized backend and
        ``physical_pairs`` as sorted, unique ``a < b`` rows; results and
        metrics equal a call without it.
        """
        check_positive("rounds", rounds)
        raw = _pair_array(physical_pairs)
        registry = _metrics()
        if closure is not None:
            if rounds != 1 or self._backend != "vectorized":
                raise ConfigurationError(
                    "a closure resumes one round on the vectorized "
                    f"backend, not {rounds} on {self._backend!r}"
                )
            return np.take(raw, closure.tally(self._nu, registry), axis=0)
        if logical is None:
            raise ConfigurationError("discover needs a logical graph")
        if raw.size:
            logical._check_range(int(raw.min()), int(raw.max()))
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

        Each round screens the still-unlinked pairs against the links
        so far (:class:`_Screen`), resolves their distances in one
        :class:`HopClosure`, and merges the new links in: no graph
        copies, no per-pair ``has_link`` queries.  Metrics, results,
        and first-occurrence pair deduplication match the reference.
        """
        screen = _Screen(raw, logical)
        found: List[np.ndarray] = []
        for round_index in range(rounds):
            new_keys = screen.keys[screen.closure().tally(self._nu, registry)]
            if new_keys.size == 0:
                break
            found.append(new_keys)
            if round_index == rounds - 1:
                break
            screen.link(new_keys)
        # A recovered pair joins the links, so no key repeats across
        # rounds.
        keys = np.concatenate(found or [screen.keys[:0]])
        if not _strictly_increasing(keys):
            keys = np.sort(keys)
        return np.stack(divmod(keys, screen.n), axis=1)

    def _one_round(
        self, pending: List[Pair], logical: LogicalGraph
    ) -> Dict[Pair, int]:
        """Pairs connectable by a ``<= nu``-hop path in the current
        graph, mapped to the hop distance of that path (in ``pending``
        order), by per-source networkx shortest-path queries."""
        reach = {
            source: logical.within_hops(source, self._nu)
            for source in {a for a, _ in pending}
        }
        return {
            (a, b): reach[a][b]
            for a, b in pending
            if reach[a].get(b, 0) > 0
        }


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
