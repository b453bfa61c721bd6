"""End-to-end equivalence of the snapshot pipeline and its oracle.

:class:`NetworkExperiment` runs one compute pipeline: the array neighbor
search and pre-distribution, the round-aligned shared-code kernel and
the hop-ball M-NDP closure.  Its reference,
:func:`repro.oracles.reference_run`, composes the per-item loops, the
node-by-code membership matrix and the networkx closure on the same rng
streams; both must produce identical run results and instrumented
counters.  ``compute_backend`` survives only as a fixed value.
"""

import numpy as np
import pytest

from repro.adversary.jammer import JammerStrategy
from repro.campaigns import CampaignSpec
from repro.core.config import JRSNDConfig
from repro.errors import ConfigurationError
from repro.experiments.pool import WorkerPool
from repro.experiments.runner import (
    ExperimentResult,
    NetworkExperiment,
    _lane_counts,
)
from repro.oracles import reference_run, reference_shared_counts
from repro.predistribution.authority import PreDistributor


def _small_config() -> JRSNDConfig:
    return JRSNDConfig(
        n_nodes=250,
        codes_per_node=20,
        share_count=10,
        n_compromised=8,
        field_width=1500.0,
        field_height=1500.0,
        tx_range=300.0,
    )


def _reference(config, seed, runs, **kwargs):
    """``runs`` oracle runs of the experiment ``NetworkExperiment(config,
    seed=seed, collect_metrics=True, **kwargs)`` describes."""
    return ExperimentResult(
        runs=tuple(
            reference_run(config, seed, index, **kwargs)
            for index in range(runs)
        )
    )


def _assert_same_counters(want, got):
    assert want.merged_metrics().counters == got.merged_metrics().counters


class TestComputeBackendEquivalence:
    @pytest.mark.parametrize(
        "strategy", [JammerStrategy.REACTIVE, JammerStrategy.RANDOM]
    )
    def test_run_results_identical(self, strategy):
        config = _small_config()
        reference = _reference(config, 31, 3, strategy=strategy)
        vectorized = NetworkExperiment(
            config, seed=31, strategy=strategy, collect_metrics=True,
        ).run(3)
        assert reference == vectorized
        _assert_same_counters(reference, vectorized)

    @pytest.mark.parametrize(
        "case",
        [
            # l does not divide n: virtual slots leave short subsets.
            dict(n_nodes=253, share_count=10),
            # No compromise: every shared code is safe.
            dict(n_compromised=0),
            # The chipless sweep under random jamming.
            dict(phy_backend="chipless", n_compromised=25),
        ],
        ids=["virtual-slots", "no-compromise", "chipless"],
    )
    @pytest.mark.parametrize(
        "strategy", [JammerStrategy.REACTIVE, JammerStrategy.RANDOM]
    )
    def test_kernel_edge_cases(self, case, strategy):
        config = _small_config().replace(**case)
        reference = _reference(config, 17, 2, strategy=strategy)
        vectorized = NetworkExperiment(
            config, seed=17, strategy=strategy, collect_metrics=True,
        ).run(2)
        assert reference == vectorized
        _assert_same_counters(reference, vectorized)
        assert reference.runs[0].n_pairs > 0

    @pytest.mark.parametrize("link_model", ["codes", "independent"])
    @pytest.mark.parametrize("phy_backend", ["message", "chipless"])
    def test_link_models_with_latency(self, phy_backend, link_model):
        """The independent link model draws no code state at run time
        but the oracle always does; streams keyed by label keep every
        draw, the latency sample included, where it was."""
        config = _small_config().replace(phy_backend=phy_backend)
        kwargs = dict(
            strategy=JammerStrategy.RANDOM,
            link_model=link_model,
            sample_latency=True,
        )
        reference = _reference(config, 23, 2, **kwargs)
        vectorized = NetworkExperiment(
            config, seed=23, collect_metrics=True, **kwargs
        ).run(2)
        assert reference == vectorized
        _assert_same_counters(reference, vectorized)
        assert reference.mean_dndp_latency() is not None

    def test_instrumented_counters_identical(self):
        config = _small_config()
        reference = _reference(config, 5, 2, mndp_rounds=2)
        vectorized = NetworkExperiment(
            config, seed=5, mndp_rounds=2, collect_metrics=True
        ).run(2)
        want = reference.merged_metrics()
        got = vectorized.merged_metrics()
        assert want.counters == got.counters
        assert want.histograms.keys() == got.histograms.keys()
        for name in want.histograms:
            assert want.histograms[name] == got.histograms[name], name

    def test_parallel_matches_serial_per_backend(self):
        """Pool runs equal serial runs, and both equal the oracle."""
        config = _small_config()
        experiment = NetworkExperiment(
            config, seed=13, collect_metrics=True
        )
        with WorkerPool(2) as pool:
            parallel = pool.run(experiment, range(4))
        serial = experiment.run(4)
        reference = _reference(config, 13, 4)
        assert serial == parallel == reference
        _assert_same_counters(serial, parallel)
        _assert_same_counters(serial, reference)

    def test_backend_property_and_validation(self):
        """``"vectorized"`` is the only value the two remaining entry
        points take; any other names the oracle instead."""
        config = _small_config()
        NetworkExperiment(config, seed=1, compute_backend="vectorized")
        for value in ("reference", "cuda"):
            with pytest.raises(ConfigurationError, match="repro.oracles"):
                NetworkExperiment(config, seed=1, compute_backend=value)
        spec = CampaignSpec(name="c", seed=1, runs_per_point=1, base="tiny")
        assert spec.compute_backend == "vectorized"
        with pytest.raises(AttributeError):
            spec.compute_backend = "reference"


class TestSharedCountKernel:
    """The shared-code kernel counts eight rounds per ``uint64`` lane
    and folds each lane's bytes into one count; the counts must stay
    exact for any ``m``, including ``m > 255`` where a single byte fold
    would overflow."""

    @staticmethod
    def _concat(chunks):
        chunks = list(chunks)
        return (
            [(start, stop) for start, stop, _, _ in chunks],
            np.concatenate([safe for _, _, safe, _ in chunks]),
            np.concatenate([comp for _, _, _, comp in chunks]),
        )

    @pytest.mark.parametrize("m", [1, 7, 200, 300])
    @pytest.mark.parametrize("share_count", [2, 12, 60])
    def test_counts_match_membership_reference(self, m, share_count):
        """``share_count == n`` makes every pair share all ``m`` rounds
        (``w = 1``), so at ``m`` = 300 every count passes 255.  Every
        pair appears three times, so the pairs span two 4096-pair
        chunks."""
        n_nodes = 60
        rng = np.random.default_rng(1000 * m + share_count)
        assignment = PreDistributor(n_nodes, m, share_count).assign(rng)
        compromised = rng.random(assignment.pool_size) < 0.3
        pairs = np.array(
            [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)]
            * 3,
            dtype=np.int64,
        )
        experiment = NetworkExperiment(_small_config(), seed=1)
        want = self._concat(
            reference_shared_counts(pairs, assignment, compromised)
        )
        got = self._concat(
            experiment._shared_counts(pairs, assignment, compromised)
        )
        assert want[0] == got[0] == [(0, 4096), (4096, 5310)]
        assert np.array_equal(want[1], got[1])
        assert np.array_equal(want[2], got[2])
        if share_count == n_nodes:
            assert (got[1] + got[2] == m).all()

    @pytest.mark.parametrize("lanes", [1, 30, 31, 32, 80])
    def test_lane_counts_are_exact(self, lanes):
        rng = np.random.default_rng(lanes)
        ones = np.ones((64, 8 * lanes), dtype=bool)
        ones[1:] = rng.random((63, 8 * lanes)) < 0.7
        counts = _lane_counts(ones.view(np.uint64))
        assert counts.dtype == np.int64
        assert np.array_equal(counts, ones.sum(axis=1))
        assert counts[0] == 8 * lanes
