"""Reference implementations kept only as test oracles.

The runtime has one correlation engine
(:class:`~repro.dsss.engine.BatchedCorrelationEngine`), one
implementation of the chipless PHY model
(:class:`~repro.dsss.phy.ChiplessModel`) and one snapshot pipeline.
Their slow, obviously-correct references live here so the equivalence
tests can check the fast paths and the speed-up benchmarks have an
honest baseline: the per-draw pair PHYs, the chip-level one included,
and the per-item snapshot pipeline :func:`reference_run`.  The
Reed-Solomon codec (:class:`~repro.ecc.reed_solomon.ReedSolomonCodec`)
has a single pipeline and needs no reference: its tests check round
trips and the ``2e + f <= n - k`` budget directly.  Only ``tests/``
and ``benchmarks/`` import this module, and with it networkx.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set
from typing import Tuple, Union

import networkx as nx
import numpy as np

from repro.adversary.compromise import CompromiseModel
from repro.adversary.jammer import JammerStrategy, JammingModel
from repro.analysis.dndp_theory import dndp_lower_bound, dndp_upper_bound
from repro.core.config import JRSNDConfig
from repro.core.dndp import DNDPSampler
from repro.core.mndp import LogicalGraph, _pair_array
from repro.dsss.channel import ChipChannel
from repro.dsss.correlator import correlate_many
from repro.dsss.engine import CorrelationEngine
from repro.dsss.phy import _AUTH, _BURST_KINDS, _CONFIRM, _HELLO
from repro.dsss.phy import CONFIRM_BLOCKS, ChiplessModel, _identify_fraction
from repro.dsss.spread_code import CodePool
from repro.dsss.synchronizer import SlidingWindowSynchronizer
from repro.errors import ConfigurationError
from repro.experiments.runner import RunResult
from repro.obs import MetricsRegistry, current, installed
from repro.obs import names as _names
from repro.predistribution.authority import CodeAssignment, PreDistributor
from repro.sim.field import Position, RectangularField, _position_array
from repro.sim.mobility import uniform_positions
from repro.utils.rng import SeedSequencer
from repro.utils.validation import check_positive

__all__ = [
    "NaiveCorrelationEngine",
    "PairPHY",
    "ChipPairPHY",
    "ChiplessPairPHY",
    "ReferenceGraph",
    "make_pair_phy",
    "reference_assign",
    "reference_discover",
    "reference_neighbor_pairs",
    "reference_round",
    "reference_run",
    "reference_shared_counts",
    "run_point_state",
    "sample_dndp_chip",
]

#: A pool code index, or a key naming an unjammable session code.
CodeKey = Union[int, str]

Pair = Tuple[int, int]

#: Pairs per D-NDP sweep chunk, part of the runner's rng contract.
_CHUNK = 4096


class NaiveCorrelationEngine(CorrelationEngine):
    """The textbook per-position correlation loop.

    Deliberately keeps the unbatched cost profile — one
    :func:`~repro.dsss.correlator.correlate_many` call (which re-stacks
    the code matrix) per position — so it serves both as the
    equivalence reference and as the benchmark baseline.
    """

    def correlate_block(
        self, buffer: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        self._check_range(buffer, start, stop)
        out = np.empty((stop - start, self.n_codes), dtype=np.float64)
        for i, position in enumerate(range(start, stop)):
            out[i] = correlate_many(buffer, self._codes, position)
        return out


class PairPHY:
    """Shared jam geometry + rng stream contract of the per-draw PHYs.

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
        self, kind: str, code_index: CodeKey, rng: np.random.Generator
    ) -> bool:
        """Sample whether one ``kind`` message under ``code_index``
        is acquired *and* decodes.

        Draw order (identical in both PHYs): chip offset, payload bits,
        the random jammer's targeting coin, jam bits — then any
        PHY-specific noise.
        """
        coded, plain = self._shapes[kind]
        offset = int(rng.integers(0, self._n))
        bits = rng.integers(0, 2, size=coded, dtype=np.int8)
        jam_start, jam_len = self._jam_plan(kind, code_index, coded, rng)
        jam_bits = (
            rng.integers(0, 2, size=jam_len, dtype=np.int8)
            if jam_len else None
        )
        return self._deliver(
            code_index, offset, bits, jam_start, jam_bits, plain, rng
        )

    def hello_received(
        self, code_index: CodeKey, rng: np.random.Generator
    ) -> bool:
        """The sub-session's HELLO leg."""
        return self.message_received(_HELLO, code_index, rng)

    def burst_received(
        self, code_index: CodeKey, rng: np.random.Generator
    ) -> bool:
        """The CONFIRM + two authentication messages, short-circuiting
        on the first loss (both PHYs exit at the same message for a
        shared noiseless stream, so the contract survives the early
        exit)."""
        for kind in _BURST_KINDS:
            if not self.message_received(kind, code_index, rng):
                return False
        return True

    def subsession_survives(
        self, code_index: CodeKey, rng: np.random.Generator
    ) -> bool:
        """One full sub-session: HELLO then the three-message burst."""
        return self.hello_received(code_index, rng) and (
            self.burst_received(code_index, rng)
        )

    def sample_pair(
        self,
        shared_codes: Sequence[int],
        rng: np.random.Generator,
        redundancy: bool = True,
    ) -> Tuple[bool, Tuple[int, ...]]:
        """``(success, surviving_codes)`` of one D-NDP attempt: every
        HELLO first, then the burst of each HELLO survivor — or of one
        random survivor without ``redundancy``, as in
        :meth:`repro.core.dndp.DNDPSampler.sample_pair`."""
        hello_survivors = [
            int(code)
            for code in shared_codes
            if self.hello_received(code, rng)
        ]
        candidates = hello_survivors
        if not redundancy and hello_survivors:
            pick = int(rng.integers(0, len(hello_survivors)))
            candidates = [hello_survivors[pick]]
        surviving = tuple(
            code for code in candidates if self.burst_received(code, rng)
        )
        return bool(surviving), surviving

    def _jam_plan(
        self,
        kind: str,
        code_index: CodeKey,
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
        code_index: CodeKey,
        offset: int,
        bits: np.ndarray,
        jam_start: int,
        jam_bits: Optional[np.ndarray],
        plain_bits: int,
        rng: np.random.Generator,
    ) -> bool:
        raise NotImplementedError


class ChipPairPHY(PairPHY):
    """The chip-level reference: real waveforms end to end.

    Parameters beyond :class:`PairPHY`'s: the ``pool`` supplying actual
    :class:`~repro.dsss.spread_code.SpreadCode` chips per pool index.
    """

    backend = "chip"

    def __init__(
        self,
        pool: CodePool,
        jamming: JammingModel,
        code_length: int,
        tau: float,
        hello_shape: Tuple[int, int],
        auth_shape: Tuple[int, int],
        noise_std: float = 0.0,
        jam_amplitude: float = 2.0,
    ) -> None:
        super().__init__(
            jamming, code_length, tau, hello_shape, auth_shape,
            noise_std, jam_amplitude,
        )
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
        key = (code_index, message_bits)
        sync = self._synchronizers.get(key)
        if sync is None:
            sync = SlidingWindowSynchronizer(
                [self._pool.code(code_index)],
                tau=self._tau,
                message_bits=message_bits,
                confirm_blocks=CONFIRM_BLOCKS,
            )
            self._synchronizers[key] = sync
        return sync

    def _deliver(
        self,
        code_index: CodeKey,
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
        sync = self._synchronizer(int(code_index), coded_bits)
        # False locks at pre-offset positions (noise or partial message
        # overlap crossing tau) despread bit salad; the real receiver
        # rejects it upstream and resumes one chip later
        # (scan_validated's recovery), so keep scanning until the true
        # offset locks or the buffer is exhausted.  The scan never
        # considers positions past ``offset`` — the buffer ends exactly
        # ``message_bits * N`` chips after it.
        position = 0
        while True:
            result = sync.scan(signal, start=position)
            if result is None or result.position == offset:
                break
            position = result.position + 1
        if result is None:
            return False
        sent = bits.tolist()
        erasures = sum(1 for bit in result.bits if bit is None)
        errors = sum(
            1
            for decoded, expected in zip(result.bits, sent)
            if decoded is not None and decoded != expected
        )
        return 2 * errors + erasures <= coded_bits - plain_bits


class ChiplessPairPHY(PairPHY):
    """The chipless model drawn message by message: per-bit correlation
    statistics, no chips."""

    backend = "chipless"

    def _deliver(
        self,
        code_index: CodeKey,
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
            return False
        # Same decisions as despread(): >= tau -> 1, <= -tau -> 0,
        # otherwise an erasure.
        decisions = np.where(
            corr >= self._tau, 1, np.where(corr <= -self._tau, 0, -1)
        )
        erasures = int((decisions < 0).sum())
        errors = int(((decisions >= 0) & (decisions != bits)).sum())
        return 2 * errors + erasures <= coded_bits - plain_bits


def _phy_args(
    config: JRSNDConfig,
) -> Tuple[int, float, Tuple[int, int], Tuple[int, int], float, float]:
    """:class:`PairPHY`'s arguments after ``jamming``, from ``config``."""
    return (
        config.code_length,
        config.tau,
        (config.hello_coded_bits, config.hello_plain_bits),
        (config.auth_frame_bits, config.auth_plain_bits),
        config.phy_noise_std,
        config.phy_jam_amplitude,
    )


def make_pair_phy(
    backend: str,
    config: JRSNDConfig,
    jamming: JammingModel,
    pool: Optional[CodePool] = None,
) -> Optional[PairPHY]:
    """The per-draw pair PHY of ``backend`` for ``config``.

    ``"chip"`` needs the ``pool`` supplying real codes; ``"chipless"``
    needs none; ``"message"`` has no pair PHY and returns ``None``.
    """
    if backend == "message":
        return None
    if backend == "chipless":
        return ChiplessPairPHY(jamming, *_phy_args(config))
    if backend != "chip":
        raise ConfigurationError(
            "pair PHY backend must be 'message', 'chip' or 'chipless', "
            f"got {backend!r}"
        )
    if pool is None:
        raise ConfigurationError(
            "the chip PHY needs a CodePool supplying real codes"
        )
    return ChipPairPHY(pool, jamming, *_phy_args(config))


def run_point_state(
    config: JRSNDConfig,
    seed: int,
    strategy: JammerStrategy = JammerStrategy.REACTIVE,
    run_index: int = 0,
) -> Tuple[np.ndarray, CodeAssignment, JammingModel, SeedSequencer]:
    """One run's pairs, code assignment, jamming model and seed tree,
    rebuilt on the reference pieces from the seed labels
    :class:`~repro.experiments.runner.NetworkExperiment` draws them
    from on the codes link model."""
    seeds = SeedSequencer(seed).child(f"run-{run_index}")
    field = RectangularField(
        config.field_width, config.field_height, config.tx_range
    )
    positions = uniform_positions(
        field, config.n_nodes, seeds.rng("placement")
    )
    pairs = reference_neighbor_pairs(field, positions)
    distributor = PreDistributor(
        config.n_nodes, config.codes_per_node, config.share_count
    )
    assignment = reference_assign(distributor, seeds.rng("assignment"))
    compromise = CompromiseModel(assignment).compromise_random(
        config.n_compromised, seeds.rng("compromise")
    )
    jamming = JammingModel.from_compromise(
        strategy, compromise, config.z_jamming_signals, config.mu
    )
    return pairs, assignment, jamming, seeds


def sample_dndp_chip(
    config: JRSNDConfig,
    pairs: np.ndarray,
    assignment: CodeAssignment,
    jamming: JammingModel,
    seeds: SeedSequencer,
) -> np.ndarray:
    """Every pair's D-NDP outcome on the chip PHY, drawn in pair order
    from the run's ``"jamming"`` stream over a code pool seeded from
    its ``"phy-pool"`` stream.  Only practical on small fields."""
    pool_seed = int(seeds.rng("phy-pool").integers(0, 2**31 - 1))
    pool = CodePool.generate(
        assignment.pool_size, config.code_length, pool_seed
    )
    phy = ChipPairPHY(pool, jamming, *_phy_args(config))
    rng = seeds.rng("jamming")
    success = np.zeros(len(pairs), dtype=bool)
    for index, (a, b) in enumerate(pairs.tolist()):
        success[index] = phy.sample_pair(
            assignment.shared_codes(a, b), rng
        )[0]
    return success


# -- the snapshot pipeline ---------------------------------------------


def reference_neighbor_pairs(
    field: RectangularField, positions: Sequence[Position]
) -> np.ndarray:
    """:meth:`RectangularField.neighbor_pairs` by a grid-bucketed loop:
    each node against its 3 x 3 cells of side ``tx_range``."""
    points = _position_array(positions).tolist()
    cell = field.tx_range
    buckets: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for index, (x, y) in enumerate(points):
        buckets[(int(x // cell), int(y // cell))].append(index)
    pairs: Set[Pair] = set()
    for (cx, cy), members in buckets.items():
        candidates = [
            j
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for j in buckets.get((cx + dx, cy + dy), ())
        ]
        for i in members:
            for j in candidates:
                if j > i and field.in_range(points[i], points[j]):
                    pairs.add((i, j))
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def reference_assign(
    distributor: PreDistributor, rng: np.random.Generator
) -> CodeAssignment:
    """:meth:`PreDistributor.assign` subset by subset: round ``r``'s
    permutation of every slot hands code ``w·r + j`` to the real nodes
    among its ``j``-th ``l`` slots."""
    n, w = distributor.n_nodes, distributor.subsets_per_round
    size = distributor.share_count
    node_codes: List[List[int]] = [[] for _ in range(n)]
    for round_index in range(distributor.codes_per_node):
        order = rng.permutation(n + distributor.n_virtual).tolist()
        for subset in range(w):
            for node in order[subset * size : (subset + 1) * size]:
                if node < n:
                    node_codes[node].append(w * round_index + subset)
    return CodeAssignment(node_codes, pool_size=distributor.pool_size)


def reference_shared_counts(
    pairs: np.ndarray, assignment: CodeAssignment, compromised: np.ndarray
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
    """The runner's per-chunk ``(start, stop, safe_count, comp_count)``
    from a node-by-code membership matrix and the pool-sized
    ``compromised`` mask."""
    member = np.zeros((assignment.n_nodes, assignment.pool_size), bool)
    member[np.arange(assignment.n_nodes)[:, None], assignment.codes] = True
    for start in range(0, len(pairs), _CHUNK):
        stop = min(start + _CHUNK, len(pairs))
        shared = member[pairs[start:stop, 0]] & member[pairs[start:stop, 1]]
        safe = (shared & ~compromised).sum(axis=1)
        yield start, stop, safe, (shared & compromised).sum(axis=1)


class ReferenceGraph(LogicalGraph):
    """A :class:`~repro.core.mndp.LogicalGraph` that also keeps its
    links in a networkx graph, which answers graph queries."""

    def __init__(self, n_nodes: int) -> None:
        super().__init__(n_nodes)
        self._graph = nx.Graph()
        self._graph.add_nodes_from(range(self.n_nodes))

    def add_links(self, pairs: Iterable[Pair]) -> None:
        arr = _pair_array(pairs)
        super().add_links(arr)
        self._graph.add_edges_from(map(tuple, arr.tolist()))

    @property
    def n_edges(self) -> int:
        return int(self._graph.number_of_edges())

    def has_link(self, a: int, b: int) -> bool:
        return bool(self._graph.has_edge(int(a), int(b)))

    def neighbors(self, node: int) -> Set[int]:
        return set(self._graph.neighbors(int(node)))

    def edges(self) -> Set[Pair]:
        """All links as ``(a, b), a < b`` pairs."""
        return {(min(a, b), max(a, b)) for a, b in self._graph.edges()}

    def within_hops(self, source: int, max_hops: int) -> Dict[int, int]:
        """Nodes at most ``max_hops`` hops from ``source``, mapped to
        their distance."""
        check_positive("max_hops", max_hops)
        return dict(
            nx.single_source_shortest_path_length(
                self._graph, int(source), cutoff=int(max_hops)
            )
        )

    def hop_distance(self, a: int, b: int, max_hops: int) -> int:
        """Distance from ``a`` to ``b``, or 0 beyond ``max_hops``."""
        return self.within_hops(a, max_hops).get(int(b), 0)

    def copy(self) -> "ReferenceGraph":
        clone = ReferenceGraph(self.n_nodes)
        clone.add_links(self.edge_array())
        return clone


def reference_round(
    nu: int, pending: Sequence[Pair], logical: ReferenceGraph
) -> Dict[Pair, int]:
    """The ``pending`` pairs a ``<= nu``-hop path of ``logical``
    connects, mapped to its hop count (in ``pending`` order), by a
    cutoff BFS from each source."""
    reach = {a: logical.within_hops(a, nu) for a in {a for a, _ in pending}}
    return {
        (a, b): reach[a][b] for a, b in pending if reach[a].get(b, 0) > 0
    }


def reference_discover(
    nu: int,
    physical_pairs: Sequence[Pair],
    logical: ReferenceGraph,
    rounds: int = 1,
) -> np.ndarray:
    """``MNDPSampler(nu).discover(physical_pairs, logical, rounds)`` on
    networkx: each round runs :func:`reference_round` over the pairs
    not linked yet, then links what it found in a copy of ``logical``.
    Records the same ``mndp.*`` metrics."""
    check_positive("rounds", rounds)
    raw = _pair_array(physical_pairs)
    if raw.size:
        logical._check_range(int(raw.min()), int(raw.max()))
    registry = current()
    discovered: Set[Pair] = set()
    working = logical
    for round_index in range(rounds):
        pending = [
            (min(a, b), max(a, b))
            for a, b in raw.tolist()
            if not working.has_link(a, b)
        ]
        found = reference_round(nu, pending, working)
        registry.inc(_names.MNDP_ROUNDS)
        registry.inc(_names.MNDP_PAIRS_ATTEMPTED, len(pending))
        for hops in found.values():
            registry.observe(_names.MNDP_RECOVERY_HOPS, hops)
        discovered.update(found)
        if not found or round_index == rounds - 1:
            break
        working = working.copy() if working is logical else working
        working.add_links(list(found))
    registry.inc(_names.MNDP_PAIRS_RECOVERED, len(discovered))
    return np.array(sorted(discovered), dtype=np.int64).reshape(-1, 2)


def reference_run(
    config: JRSNDConfig,
    seed: int,
    run_index: int = 0,
    strategy: JammerStrategy = JammerStrategy.REACTIVE,
    mndp_rounds: int = 1,
    sample_latency: bool = False,
    link_model: str = "codes",
) -> RunResult:
    """Run ``run_index`` of :class:`NetworkExperiment(config, seed, ...,
    collect_metrics=True) <repro.experiments.runner.NetworkExperiment>`
    on the reference pieces: the same :class:`RunResult`, carrying the
    same counters and histograms.

    Draws come from the runner's stream labels, in the runner's calls:
    on the codes link model one ``rng.random`` per 4096-pair chunk.
    The code state is drawn on both link models; streams are keyed by
    label, so that moves no other draw.
    """
    with installed(MetricsRegistry()) as registry:
        pairs, assignment, jamming, seeds = run_point_state(
            config, seed, strategy, run_index
        )
        rng = seeds.rng("jamming")
        chipless = link_model == "codes" and config.phy_backend == "chipless"
        random_jammer = strategy is JammerStrategy.RANDOM
        if link_model == "independent":
            bound = dndp_upper_bound if random_jammer else dndp_lower_bound
            direct = rng.random(len(pairs)) < bound(config, config.n_compromised)
        else:
            direct = np.zeros(len(pairs), dtype=bool)
            compromised = np.array(
                [jamming.knows(code) for code in range(assignment.pool_size)]
            )
            counts = np.arange(config.codes_per_node + 1)
            table = ChiplessModel(config, jamming).pair_success_probability(
                counts[:, None], counts[None, :]
            )
            # One random-jammed sub-session dies to its HELLO or burst.
            tries = min(jamming.codes_per_message, jamming.n_compromised)
            beta = tries / max(jamming.n_compromised, 1)
            kill = beta + min(3 * beta, 1.0) - beta * min(3 * beta, 1.0)
            for start, stop, safe, comp in reference_shared_counts(
                pairs, assignment, compromised
            ):
                if chipless:
                    direct[start:stop] = rng.random(stop - start) < table[
                        safe, comp
                    ]
                    continue
                direct[start:stop] = safe > 0
                hit = np.flatnonzero(comp > 0)
                if random_jammer and hit.size and jamming.n_compromised:
                    escaped = rng.random(hit.size) >= kill ** comp[hit]
                    direct[start + hit] |= escaped
        successes = int(np.count_nonzero(direct))
        latency = None
        if sample_latency and successes:
            sampler, rng = DNDPSampler(config, jamming), seeds.rng("latency")
            draws = range(min(successes, 1000))
            latency = float(np.mean([sampler.sample_latency(rng) for _ in draws]))
        logical = ReferenceGraph(config.n_nodes)
        for (a, b), linked in zip(pairs.tolist(), direct.tolist()):
            if linked:
                logical.add_link(a, b)
        recovered = len(
            reference_discover(config.nu, pairs, logical, mndp_rounds)
        )
        degree = 2.0 * len(pairs) / config.n_nodes
        if chipless and len(pairs):
            registry.inc(_names.PHY_PAIRS_SWEPT, len(pairs))
        registry.inc(_names.EXPERIMENT_RUNS)
        registry.inc(_names.EXPERIMENT_PAIRS, len(pairs))
        registry.inc(_names.EXPERIMENT_DNDP_SUCCESSES, successes)
        registry.inc(_names.EXPERIMENT_MNDP_RECOVERED, recovered)
        registry.observe(_names.EXPERIMENT_MEAN_DEGREE, degree)
    return RunResult(
        len(pairs), successes, recovered, degree, latency,
        metrics=registry.snapshot(),
    )
