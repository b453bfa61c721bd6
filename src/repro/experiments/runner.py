"""The field-level Monte Carlo experiment.

One run mirrors the authors' C++ simulation:

1. place ``n`` nodes uniformly in the field and build the
   physical-neighbor pair list;
2. run the pre-distribution assignment;
3. compromise ``q`` random nodes, giving the jammer its code set (the
   ``independent`` link model skips steps 2 and 3 unless latency is
   sampled);
4. sample every physical pair's D-NDP outcome under the chosen jamming
   strategy (the model validated against Theorem 1);
5. close the surviving logical graph under ``nu``-hop M-NDP;
6. report ``P_D`` (fraction of pairs direct), ``P_M`` (fraction of
   D-NDP failures recovered), and the combined ``P``.

Section V-A gives every node exactly one code per round, and round
``r``'s codes are ``[w·r, w·(r+1))``, so two nodes share a code in round
``r`` exactly when their round-``r`` codes are equal.  The per-pair
D-NDP sampling therefore reads each pair's shared and compromised code
counts off an ``m``-wide equality test on the assignment's ``(n, m)``
round-local keys (code minus ``w·r``, in the narrowest unsigned dtype),
4096 pairs at a time; the ``"reference"`` compute backend counts the
same thing from a node-by-code membership matrix and serves as the
equivalence oracle.  ``tests/experiments`` checks statistical agreement
with the reference per-pair :class:`repro.core.dndp.DNDPSampler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.adversary.compromise import CompromiseModel
from repro.adversary.jammer import JammerStrategy, JammingModel
from repro.core.config import JRSNDConfig
from repro.core.dndp import DNDPSampler
from repro.core.mndp import (
    COMPUTE_BACKENDS,
    HopClosure,
    LogicalGraph,
    MNDPSampler,
)
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, MetricsSnapshot, current, installed
from repro.obs import names as _names
from repro.predistribution.authority import CodeAssignment, PreDistributor
from repro.sim.field import RectangularField
from repro.sim.mobility import uniform_positions
from repro.utils.rng import SeedSequencer
from repro.utils.validation import check_positive

__all__ = [
    "RunResult",
    "ExperimentResult",
    "FieldSnapshot",
    "NetworkExperiment",
    "RunCell",
]

#: What a :class:`FieldSnapshot` is a pure function of: ``(run seed,
#: n_nodes, field_width, field_height, tx_range, codes_per_node,
#: share_count, compute_backend)``.
SnapshotKey = Tuple[int, int, float, float, float, int, int, str]

#: What a :class:`RunCell` is a pure function of besides its snapshot:
#: ``(config fields but nu, strategy, link_model, mndp_rounds,
#: sample_latency)``.
CellKey = Tuple[Any, ...]

#: Every :class:`JRSNDConfig` field but ``nu``, as one tuple.
_CONFIG_SANS_NU = attrgetter(
    *(spec.name for spec in fields(JRSNDConfig) if spec.name != "nu")
)

#: Pairs per sweep chunk.  Every sweep draws its uniforms chunk by
#: chunk, so this is part of the rng stream and must not change.
_CHUNK = 4096

#: Rounds per 8-byte lane of the shared-code kernel.
_LANE = 8
#: Lanes summed before their bytes are folded into one count: each
#: byte then holds at most 31 and the fold's total at most 248 < 256.
_FOLD_LANES = 31
#: Multiplying by this sums a ``uint64``'s eight bytes into its top
#: byte (exact while the total stays below 256).
_BYTE_SUM = np.uint64(0x0101010101010101)


@lru_cache(maxsize=256)
def _run_seed(seed: int, run_index: int) -> int:
    """Run ``run_index``'s child seed under root ``seed``, derived once
    per process: a pool worker needs it to find the run's snapshot and
    again in :meth:`NetworkExperiment.run_once`, and every point of a
    campaign runs on one seed."""
    return SeedSequencer(seed).child(f"run-{run_index}").seed


def _lane_counts(lanes: np.ndarray) -> np.ndarray:
    """Per row, how many bytes of ``lanes`` are 1.

    ``lanes`` is a ``(k, L)`` ``uint64`` view of a 0/1 byte matrix.
    Lanes are added column by column (bytewise, no carries) in blocks
    of :data:`_FOLD_LANES`, and each block's bytes are folded into one
    count with :data:`_BYTE_SUM`, so the count is exact for any ``L``.
    """
    counts = np.zeros(len(lanes), dtype=np.uint64)
    for low in range(0, lanes.shape[1], _FOLD_LANES):
        high = min(low + _FOLD_LANES, lanes.shape[1])
        block = lanes[:, low].copy()
        for lane in range(low + 1, high):
            block += lanes[:, lane]
        counts += (block * _BYTE_SUM) >> np.uint64(56)
    return counts.astype(np.int64)


@dataclass
class RunCell:
    """Steps 3 and 4 of a run for one cell: the part of the run that
    every ``nu`` point of the cell shares.

    A cell is every input of :meth:`NetworkExperiment._evaluate` but
    ``config.nu`` (:data:`CellKey`, on top of the snapshot).  It holds
    the D-NDP outcome: the success count, the mean sampled latency, the
    pairs the chipless sweep decided (``phy.pairs_swept``), and what
    M-NDP needs of the direct links.  With one M-NDP round on the
    vectorized backend that is the round's resumable
    :class:`~repro.core.mndp.HopClosure`, built straight from the
    direct mask (the failed pairs are the pending ones, the direct
    pairs the relay links), and the mask is dropped; each ``nu`` point
    resumes it through :meth:`~repro.core.mndp.MNDPSampler.discover`.
    Otherwise links formed in one round feed the next, so the cell holds
    the read-only direct mask and each point runs M-NDP over it afresh.
    """

    key: CellKey
    dndp_successes: int
    mean_latency: Optional[float]
    swept: int
    direct: Optional[np.ndarray]
    closure: Optional[HopClosure]


class FieldSnapshot:
    """Steps 1 and 2 of a run: the neighbor pairs of a uniform
    placement and, built on first use, the code assignment.

    Nothing here reads q, the jammer, ``nu`` or the link model, so every
    campaign point that shares a seed and a topology shares the
    snapshot.  It is a pure function of its :data:`SnapshotKey`, which
    the constructor unpacks; draws come from the run seed's
    ``placement`` and ``assignment`` streams, as in an unshared run.

    The snapshot holds its read-only int64 pairs, the assignment (its
    round-local keys) once drawn, and the :class:`RunCell` it last
    served, so the next point
    of that cell skips steps 3 and 4 and resumes its M-NDP closure.  It
    records no metrics, so sharing it changes no counter.
    """

    def __init__(self, key: SnapshotKey) -> None:
        seed, n_nodes, width, height, tx_range, _m, _l, backend = key
        self.key = key
        self.seeds = SeedSequencer(seed)
        field = RectangularField(width, height, tx_range)
        positions = uniform_positions(
            field, n_nodes, self.seeds.rng("placement")
        )
        pairs = field.neighbor_pairs(positions, backend=backend)
        pairs.setflags(write=False)
        #: The sorted ``(k, 2)`` int64 neighbor pair array, read-only.
        self.pairs = pairs
        self._assignment: Optional[CodeAssignment] = None
        self._cell: Optional[RunCell] = None

    def assignment(self) -> CodeAssignment:
        """The run's code assignment, drawn from the ``assignment``
        stream on the first call."""
        if self._assignment is None:
            _seed, n_nodes, _w, _h, _r, m, share_count, backend = self.key
            distributor = PreDistributor(n_nodes, m, share_count)
            self._assignment = distributor.assign(
                self.seeds.rng("assignment"), backend=backend
            )
        return self._assignment

    def cell(self, key: CellKey) -> Optional[RunCell]:
        """The cell this snapshot last served, if its key is ``key``."""
        cell = self._cell
        return cell if cell is not None and cell.key == key else None

    def keep(self, cell: RunCell) -> None:
        """Hold ``cell`` in place of the last one."""
        self._cell = cell


@dataclass(frozen=True)
class RunResult:
    """Counts from one simulated field snapshot.

    Attributes
    ----------
    n_pairs:
        Physical-neighbor pairs in the snapshot.
    dndp_successes:
        Pairs that discovered each other directly.
    mndp_successes:
        D-NDP-failed pairs recovered by M-NDP.
    mean_degree:
        Average physical degree ``g`` of this snapshot.
    mean_dndp_latency:
        Mean sampled handshake latency over direct successes (seconds),
        or ``None`` when latency sampling was off.
    metrics:
        Per-run :class:`~repro.obs.MetricsSnapshot` when the experiment
        was built with ``collect_metrics=True``; excluded from equality
        so instrumented and uninstrumented runs of the same seed still
        compare equal.
    """

    n_pairs: int
    dndp_successes: int
    mndp_successes: int
    mean_degree: float
    mean_dndp_latency: Optional[float] = None
    metrics: Optional[MetricsSnapshot] = field(
        default=None, compare=False, repr=False
    )

    @property
    def p_dndp(self) -> float:
        """Direct discovery probability of this run."""
        return self.dndp_successes / self.n_pairs if self.n_pairs else 0.0

    @property
    def dndp_failures(self) -> int:
        """Pairs whose direct discovery was jammed."""
        return self.n_pairs - self.dndp_successes

    @property
    def p_mndp(self) -> float:
        """Fraction of D-NDP failures recovered by M-NDP.

        Undefined when the run had no D-NDP failures; this property
        returns 0.0 then, which is why the across-run aggregation in
        :class:`ExperimentResult` skips such runs instead of averaging
        the 0.0 in.
        """
        failures = self.dndp_failures
        return self.mndp_successes / failures if failures else 0.0

    @property
    def p_jrsnd(self) -> float:
        """Combined discovery probability."""
        if not self.n_pairs:
            return 0.0
        return (self.dndp_successes + self.mndp_successes) / self.n_pairs


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregate over all runs of one experiment."""

    runs: Tuple[RunResult, ...]

    def discovery_probability(self, kind: str) -> float:
        """Mean probability across runs; ``kind`` is ``dndp`` (direct),
        ``mndp`` (recovery rate of failures), or ``jrsnd`` (combined).

        The ``mndp`` mean is taken only over runs that had at least one
        D-NDP failure: a run with nothing to recover carries no
        information about the recovery rate, and averaging its
        ``p_mndp = 0.0`` in would bias ``P_M`` downward (most visibly
        at light compromise, where many runs have no failures at all).
        Returns 0.0 when no run qualifies.
        """
        values = self._series(kind)
        return float(np.mean(values)) if values else 0.0

    def std(self, kind: str) -> float:
        """Across-run *sample* standard deviation (``ddof=1``).

        The paper's error bars come from the Student-t interval in
        :meth:`confidence_interval`, which is built on the sample
        variance; reporting the population sigma (``ddof=0``) here made
        the two disagree and biased the quoted spread low by a factor
        of ``sqrt((n-1)/n)`` — about 0.5% at the paper's 100 runs but
        over 18% at the 3-5 run counts the smoke sweeps use.  A single
        run (or none) carries no spread information and yields 0.0.
        """
        values = self._series(kind)
        if len(values) < 2:
            return 0.0
        return float(np.std(values, ddof=1))

    def confidence_interval(
        self, kind: str, confidence: float = 0.95
    ) -> Tuple[float, float, float]:
        """``(mean, low, high)`` Student-t interval across runs."""
        from repro.utils.stats import mean_confidence_interval

        return mean_confidence_interval(self._series(kind), confidence)

    def mean_degree(self) -> float:
        """Average physical degree across runs (0.0 with no runs).

        ``np.mean([])`` would emit a ``RuntimeWarning`` and return
        ``nan`` — a value that, once persisted into a results store,
        poisons every later comparison; an empty aggregate reports 0.0
        instead.
        """
        if not self.runs:
            return 0.0
        return float(np.mean([r.mean_degree for r in self.runs]))

    def mean_dndp_latency(self) -> Optional[float]:
        """Sampled direct-discovery latency averaged across runs.

        Per-run means are weighted by each run's D-NDP success count:
        a run whose mean came from 900 successful handshakes should
        dominate one that sampled 3, which the previous unweighted
        average of per-run means ignored.  Runs without latency
        sampling (or without a single direct success) contribute
        nothing; returns ``None`` when no run qualifies instead of
        letting ``np.mean([])`` produce a ``nan``.
        """
        weighted = [
            (r.mean_dndp_latency, r.dndp_successes)
            for r in self.runs
            if r.mean_dndp_latency is not None and r.dndp_successes > 0
        ]
        if not weighted:
            return None
        total_weight = sum(weight for _, weight in weighted)
        return float(
            sum(value * weight for value, weight in weighted)
            / total_weight
        )

    def merged_metrics(self) -> MetricsSnapshot:
        """All per-run snapshots folded into experiment totals.

        Counter totals are deterministic for a given seed and identical
        between the serial and parallel execution paths; runs without a
        snapshot (``collect_metrics=False``) contribute nothing.
        """
        return MetricsSnapshot.merge_all(r.metrics for r in self.runs)

    def _series(self, kind: str) -> List[float]:
        if kind == "dndp":
            return [r.p_dndp for r in self.runs]
        if kind == "mndp":
            # Only runs with failures estimate the recovery rate; a
            # zero-failure run's p_mndp of 0.0 is a placeholder, not a
            # measurement (see discovery_probability).
            return [r.p_mndp for r in self.runs if r.dndp_failures > 0]
        if kind == "jrsnd":
            return [r.p_jrsnd for r in self.runs]
        raise ConfigurationError(
            f"kind must be dndp/mndp/jrsnd, got {kind!r}"
        )


class NetworkExperiment:
    """Runs field snapshots under a configuration.

    Parameters
    ----------
    config:
        Deployment parameters (Table I defaults).
    seed:
        Root seed; every run derives independent sub-streams.
    strategy:
        Jamming strategy; the paper reports reactive (worst case).
    mndp_rounds:
        M-NDP closure rounds (1 = Theorem 3's assumption).
    sample_latency:
        Record per-pair latency samples for successful D-NDP runs.
    link_model:
        ``"codes"`` (default) samples every pair's D-NDP outcome from
        its actual shared codes and the compromise state — the faithful
        model, in which one relay's clean code set helps *all* its
        links, so M-NDP recovers more than the paper plots.
        ``"independent"`` draws each physical link i.i.d. with the
        Theorem 1 probability for the strategy; this matches the
        authors' plotted M-NDP behaviour (notably Fig. 5(a)'s strong
        dependence on nu) and is almost certainly what their C++
        simulator did.  It draws no code assignment and compromises no
        node (unless ``sample_latency`` needs the jamming model), which
        leaves every result unchanged.  See EXPERIMENTS.md for the
        comparison.
    collect_metrics:
        Capture a per-run :class:`~repro.obs.MetricsSnapshot` on every
        :class:`RunResult` (and forward it to any registry installed in
        the calling process).  Off by default; the layers then report
        into the no-op registry at negligible cost.
    compute_backend:
        ``"vectorized"`` (default) runs the snapshot pipeline on the
        array implementations (neighbor search, pre-distribution, the
        round-aligned shared-code kernel of the D-NDP sweeps, M-NDP
        closure); ``"reference"`` keeps the original per-item loops and
        the node-by-code membership matrix as equivalence oracles.
        Both backends consume identical rng streams and produce
        identical :class:`RunResult` values.
    phy_backend:
        When set, overrides ``config.phy_backend`` for the D-NDP
        sampling step (``"codes"`` link model only): ``"message"``
        keeps the per-message Bernoulli model; ``"chipless"`` computes
        each pair's success probability in closed form from the
        correlation statistics and decides all pairs in one batched
        sweep (one uniform per pair).  The chip-level reference the
        chipless results are validated against is a test oracle,
        :func:`repro.oracles.sample_dndp_chip`, not a backend.
    """

    def __init__(
        self,
        config: JRSNDConfig,
        seed: int,
        strategy: JammerStrategy = JammerStrategy.REACTIVE,
        mndp_rounds: int = 1,
        sample_latency: bool = False,
        link_model: str = "codes",
        collect_metrics: bool = False,
        compute_backend: str = "vectorized",
        phy_backend: Optional[str] = None,
    ) -> None:
        check_positive("mndp_rounds", mndp_rounds)
        if strategy not in (JammerStrategy.REACTIVE, JammerStrategy.RANDOM):
            raise ConfigurationError(
                "NetworkExperiment supports the paper's RANDOM and "
                "REACTIVE strategies; use DNDPSampler directly for the "
                f"{strategy} ablation"
            )
        if link_model not in ("codes", "independent"):
            raise ConfigurationError(
                f"link_model must be 'codes' or 'independent', "
                f"got {link_model!r}"
            )
        if compute_backend not in COMPUTE_BACKENDS:
            raise ConfigurationError(
                f"compute_backend must be one of {COMPUTE_BACKENDS}, "
                f"got {compute_backend!r}"
            )
        if phy_backend is not None:
            config = config.replace(phy_backend=phy_backend)
        self._config = config
        self._seeds = SeedSequencer(seed)
        self._strategy = strategy
        self._mndp_rounds = int(mndp_rounds)
        self._sample_latency = bool(sample_latency)
        self._link_model = link_model
        self._collect_metrics = bool(collect_metrics)
        self._compute_backend = compute_backend

    @property
    def config(self) -> JRSNDConfig:
        """The experiment's configuration."""
        return self._config

    @property
    def collect_metrics(self) -> bool:
        """Whether runs carry per-run metric snapshots."""
        return self._collect_metrics

    @property
    def compute_backend(self) -> str:
        """The snapshot-pipeline implementation in use."""
        return self._compute_backend

    def run(self, runs: int = 1) -> ExperimentResult:
        """Execute ``runs`` independent snapshots."""
        check_positive("runs", runs)
        with current().timer(_names.EXPERIMENT_RUN_SECONDS):
            results = [self.run_once(i) for i in range(runs)]
        return ExperimentResult(runs=tuple(results))

    def snapshot_key(self, run_index: int) -> SnapshotKey:
        """The key of run ``run_index``'s :class:`FieldSnapshot`."""
        config = self._config
        return (
            _run_seed(self._seeds.seed, run_index),
            config.n_nodes,
            config.field_width,
            config.field_height,
            config.tx_range,
            config.codes_per_node,
            config.share_count,
            self._compute_backend,
        )

    def run_once(
        self, run_index: int, snapshot: Optional[FieldSnapshot] = None
    ) -> RunResult:
        """Execute one snapshot with its own derived seed.

        ``snapshot`` is run ``run_index``'s :class:`FieldSnapshot` when
        the caller already holds it (a pool worker holds the one it
        last used, for the next point of the same run); without it the
        run builds its own and keeps nothing.  A snapshot whose key
        differs from :meth:`snapshot_key` raises
        :class:`ConfigurationError`.

        With ``collect_metrics`` a fresh registry is installed for the
        duration of the snapshot so every layer's counters land in this
        run's :attr:`RunResult.metrics`; the snapshot is then absorbed
        into whatever registry the caller had installed, keeping
        process-global totals (e.g. the CLI's ``--metrics-out``)
        consistent.
        """
        key = self.snapshot_key(run_index)
        if snapshot is None:
            snapshot = FieldSnapshot(key)
        elif snapshot.key != key:
            raise ConfigurationError(
                f"snapshot {snapshot.key} does not belong to run "
                f"{run_index} of this experiment ({key})"
            )
        if not self._collect_metrics:
            return self._evaluate(snapshot)
        outer = current()
        registry = MetricsRegistry()
        with installed(registry):
            result = self._evaluate(snapshot)
        snapshot_metrics = registry.snapshot()
        outer.absorb(snapshot_metrics)
        return replace(result, metrics=snapshot_metrics)

    def _evaluate(self, snapshot: FieldSnapshot) -> RunResult:
        """Steps 3-6 of a run on its :class:`FieldSnapshot`.

        Steps 3 and 4 come from the snapshot's :class:`RunCell` when it
        last served this cell (:meth:`_decide` otherwise), so only
        M-NDP reads ``nu``.
        """
        config = self._config
        pairs = snapshot.pairs
        n_pairs = len(pairs)
        mean_degree = (
            2.0 * n_pairs / config.n_nodes if config.n_nodes else 0.0
        )
        key = self._cell_key
        cell = snapshot.cell(key)
        if cell is None:
            cell = self._decide(snapshot, pairs, key)
            snapshot.keep(cell)

        mndp = MNDPSampler(config.nu, backend=self._compute_backend)
        if cell.closure is not None:
            recovered = mndp.discover(pairs, None, closure=cell.closure)
        else:
            assert cell.direct is not None
            recovered = mndp.discover(
                pairs,
                self._logical(pairs, cell.direct),
                rounds=self._mndp_rounds,
            )

        registry = current()
        if registry.enabled:
            if cell.swept:
                registry.inc(_names.PHY_PAIRS_SWEPT, cell.swept)
            registry.inc(_names.EXPERIMENT_RUNS)
            registry.inc(_names.EXPERIMENT_PAIRS, n_pairs)
            registry.inc(
                _names.EXPERIMENT_DNDP_SUCCESSES, cell.dndp_successes
            )
            registry.inc(_names.EXPERIMENT_MNDP_RECOVERED, len(recovered))
            registry.observe(_names.EXPERIMENT_MEAN_DEGREE, mean_degree)

        return RunResult(
            n_pairs=n_pairs,
            dndp_successes=cell.dndp_successes,
            mndp_successes=len(recovered),
            mean_degree=mean_degree,
            mean_dndp_latency=cell.mean_latency,
        )

    # ------------------------------------------------------------------

    @cached_property
    def _cell_key(self) -> CellKey:
        """Every input of :meth:`_evaluate` besides the snapshot and
        ``config.nu``; the experiment never changes, so this is built
        once."""
        return (
            _CONFIG_SANS_NU(self._config),
            self._strategy,
            self._link_model,
            self._mndp_rounds,
            self._sample_latency,
        )

    def _decide(
        self, snapshot: FieldSnapshot, pairs: np.ndarray, key: CellKey
    ) -> RunCell:
        """Steps 3 and 4 of a run (compromise, D-NDP sweep, latency
        sample) and, with one M-NDP round on the vectorized backend, the
        round's :class:`~repro.core.mndp.HopClosure` of the failed pairs
        over the direct links."""
        config = self._config
        seeds = snapshot.seeds

        # The independent model reads no code: only latency sampling
        # needs the assignment and the jammer built from it.  Streams
        # are keyed by label, so skipping them moves no other draw.
        if self._link_model == "codes" or self._sample_latency:
            assignment, compromised, jamming = self._code_state(snapshot)

        swept = 0
        if self._link_model == "independent":
            direct = self._sample_independent(
                len(pairs), seeds.rng("jamming")
            )
        elif config.phy_backend == "chipless":
            direct = self._sample_dndp_chipless(
                pairs, assignment, compromised, jamming, seeds.rng("jamming")
            )
            swept = len(pairs)
        else:
            direct = self._sample_dndp(
                pairs, assignment, compromised, jamming, seeds.rng("jamming")
            )

        mean_latency = None
        dndp_successes = int(np.count_nonzero(direct))
        if self._sample_latency and dndp_successes:
            sampler = DNDPSampler(config, jamming)
            rng = seeds.rng("latency")
            samples = [
                sampler.sample_latency(rng)
                for _ in range(min(dndp_successes, 1000))
            ]
            mean_latency = float(np.mean(samples))

        if self._mndp_rounds > 1 or self._compute_backend != "vectorized":
            direct.setflags(write=False)
            return RunCell(
                key, dndp_successes, mean_latency, swept, direct, None
            )
        # The pairs are sorted, unique a < b rows, so the ones that
        # failed D-NDP are exactly the round's pending pairs.
        failed = np.flatnonzero(~direct)
        pending = np.take(pairs, failed, axis=0)
        linked = np.compress(direct, pairs, axis=0)
        closure = HopClosure(
            pending[:, 0], pending[:, 1], linked[:, 0], linked[:, 1],
            config.n_nodes, index=failed,
        )
        return RunCell(key, dndp_successes, mean_latency, swept, None, closure)

    def _logical(self, pairs: np.ndarray, direct: np.ndarray) -> LogicalGraph:
        """The logical graph of the pairs that succeeded directly."""
        logical = LogicalGraph(self._config.n_nodes)
        if self._compute_backend == "vectorized":
            logical.add_links(np.compress(direct, pairs, axis=0))
        else:
            for (a, b), success in zip(pairs.tolist(), direct.tolist()):
                if success:
                    logical.add_link(a, b)
        return logical

    def _code_state(
        self, snapshot: FieldSnapshot
    ) -> Tuple[CodeAssignment, np.ndarray, JammingModel]:
        """The run's code assignment, its compromised-code mask, and
        the jamming model the compromise gives the adversary."""
        config = self._config
        assignment = snapshot.assignment()
        compromise = CompromiseModel(assignment).compromise_random(
            config.n_compromised, snapshot.seeds.rng("compromise")
        )
        jamming = JammingModel.from_compromise(
            self._strategy, compromise, config.z_jamming_signals, config.mu
        )
        compromised = np.zeros(assignment.pool_size, dtype=bool)
        compromised[compromise.code_array] = True
        return assignment, compromised, jamming

    def _sample_independent(
        self, n_pairs: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The i.i.d. link model: Bernoulli(P) per physical pair with
        Theorem 1's closed-form probability for the strategy."""
        from repro.analysis.dndp_theory import (
            dndp_lower_bound,
            dndp_upper_bound,
        )

        if self._strategy is JammerStrategy.REACTIVE:
            p = dndp_lower_bound(self._config, self._config.n_compromised)
        else:
            p = dndp_upper_bound(self._config, self._config.n_compromised)
        return rng.random(n_pairs) < p

    def _shared_counts(
        self,
        pairs: np.ndarray,
        assignment: CodeAssignment,
        compromised: np.ndarray,
    ) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
        """Per-pair shared-code counts, one 4096-pair chunk at a time.

        Yields ``(start, stop, safe_count, comp_count)``: how many codes
        pair ``start..stop-1`` shares that the jammer does not / does
        know.  The vectorized kernel tests the two endpoints' rows of
        the assignment's round-local keys for equality (``keys[a] ==
        keys[b]`` is the per-round shared-code mask) and masks it with
        ``node_comp``, each node's per-round compromised flag, built
        once per run; both masks are counted eight rounds at a time on
        their ``uint64`` lane views (:func:`_lane_counts`).  The
        ``"reference"`` backend ANDs rows of a node-by-code membership
        matrix instead; both yield the same counts.
        """
        if self._compute_backend == "reference":
            membership = np.zeros(
                (assignment.n_nodes, assignment.pool_size), dtype=bool
            )
            membership[
                np.arange(assignment.n_nodes)[:, None], assignment.codes
            ] = True
            for start in range(0, len(pairs), _CHUNK):
                stop = min(start + _CHUNK, len(pairs))
                shared = (
                    membership[pairs[start:stop, 0]]
                    & membership[pairs[start:stop, 1]]
                )
                yield (
                    start,
                    stop,
                    (shared & ~compromised).sum(axis=1),
                    (shared & compromised).sum(axis=1),
                )
            return
        # Rows are padded to whole 8-byte lanes: the padding keys are 0
        # on both sides, so every pair "shares" the ``padding`` extra
        # rounds, never compromised ones.
        local = assignment.keys
        n_nodes, m = local.shape
        width = -(-m // _LANE) * _LANE
        padding = width - m
        keys = np.zeros((n_nodes, width), dtype=local.dtype)
        keys[:, :m] = local
        node_comp = np.zeros((n_nodes, width), dtype=bool)
        node_comp[:, :m] = np.take(compromised, local + assignment.offsets)
        comp_lanes = node_comp.view(np.uint64)
        for start in range(0, len(pairs), _CHUNK):
            stop = min(start + _CHUNK, len(pairs))
            a = pairs[start:stop, 0]
            eq = np.equal(
                np.take(keys, a, axis=0),
                np.take(keys, pairs[start:stop, 1], axis=0),
            ).view(np.uint64)
            comp_count = _lane_counts(eq & np.take(comp_lanes, a, axis=0))
            safe_count = _lane_counts(eq) - padding - comp_count
            yield start, stop, safe_count, comp_count

    def _sample_dndp(
        self,
        pairs: np.ndarray,
        assignment: CodeAssignment,
        compromised: np.ndarray,
        jamming: JammingModel,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorized per-pair D-NDP outcomes.

        Implements exactly :meth:`repro.core.dndp.DNDPSampler.sample_pair`:
        a pair succeeds iff it shares a non-compromised code, or (random
        jamming only) some shared compromised code's sub-session escapes
        both the HELLO jam (prob ``beta``) and the burst jam
        (prob ``beta'``).  Counts come from :meth:`_shared_counts`; one
        ``rng.random`` draw per chunk covers that chunk's pairs with a
        compromised shared code, on both compute backends.
        """
        success = np.zeros(len(pairs), dtype=bool)
        random_strategy = (
            self._strategy is JammerStrategy.RANDOM and jamming.n_compromised
        )
        if random_strategy:
            # Per sub-session failure prob is beta + beta' - beta*beta'
            # (same arithmetic as DNDPSampler's message_jammed /
            # burst_jammed).
            tries = min(jamming.codes_per_message, jamming.n_compromised)
            beta = tries / jamming.n_compromised
            beta_prime = min(3.0 * beta, 1.0)
            kill = beta + beta_prime - beta * beta_prime
        for start, stop, safe_count, comp_count in self._shared_counts(
            pairs, assignment, compromised
        ):
            direct = safe_count > 0
            if random_strategy:
                survive_any = np.zeros(stop - start, dtype=bool)
                positive = comp_count > 0
                if positive.any():
                    fail_all = kill ** comp_count[positive]
                    survive_any[positive] = (
                        rng.random(int(positive.sum())) >= fail_all
                    )
                direct |= survive_any
            success[start:stop] = direct
        return success

    def _sample_dndp_chipless(
        self,
        pairs: np.ndarray,
        assignment: CodeAssignment,
        compromised: np.ndarray,
        jamming: JammingModel,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """The analytic PHY sweep: all pairs decided in one batch.

        A :class:`~repro.dsss.phy.ChiplessModel` reduces the chipless
        per-message model to two sub-session probabilities (safe /
        compromised shared code); each pair's success probability is
        then ``1 - (1-p_s)^x_s (1-p_c)^x_c`` over the shared-code counts
        :meth:`_shared_counts` yields, read from a table over every
        count pair in ``0..m`` built once per run, and one uniform per
        pair decides the outcome.  Same 4096-pair chunks and one ``rng.random(chunk)``
        draw per chunk on both compute backends, so reference and
        vectorized consume identical rng streams and return identical
        outcomes.  The caller counts the swept pairs
        (``phy.pairs_swept``), so a cell that reuses the outcome counts
        them too.
        """
        from repro.dsss.phy import ChiplessModel

        n_pairs = len(pairs)
        if not n_pairs:
            return np.zeros(0, dtype=bool)
        model = ChiplessModel(self._config, jamming)
        success = np.zeros(n_pairs, dtype=bool)
        registry = current()
        with registry.timer(_names.PHY_SWEEP_SECONDS):
            # table[x_s * (m + 1) + x_c] for every count pair in 0..m.
            counts = np.arange(assignment.codes_per_node + 1)
            table = model.pair_success_probability(
                counts[:, None], counts[None, :]
            ).ravel()
            for start, stop, safe_count, comp_count in self._shared_counts(
                pairs, assignment, compromised
            ):
                probability = np.take(
                    table, safe_count * counts.size + comp_count
                )
                success[start:stop] = (
                    rng.random(stop - start) < probability
                )
        return success
