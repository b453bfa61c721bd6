"""End-to-end equivalence of the experiment compute backends.

The ``compute_backend`` knob swaps the snapshot pipeline between the
original per-item loops (with the node-by-code membership matrix) and
the array implementations (with the round-aligned shared-code kernel);
both must consume identical rng streams and produce identical results,
run results, and instrumented counters.
"""

import numpy as np
import pytest

from repro.adversary.jammer import JammerStrategy
from repro.core.config import JRSNDConfig
from repro.errors import ConfigurationError
from repro.experiments.pool import WorkerPool
from repro.experiments.runner import NetworkExperiment, _lane_counts
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


class TestComputeBackendEquivalence:
    @pytest.mark.parametrize(
        "strategy", [JammerStrategy.REACTIVE, JammerStrategy.RANDOM]
    )
    def test_run_results_identical(self, strategy):
        config = _small_config()
        reference = NetworkExperiment(
            config, seed=31, strategy=strategy,
            compute_backend="reference", collect_metrics=True,
        ).run(3)
        vectorized = NetworkExperiment(
            config, seed=31, strategy=strategy,
            compute_backend="vectorized", collect_metrics=True,
        ).run(3)
        assert reference == vectorized

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
        results = [
            NetworkExperiment(
                config, seed=17, strategy=strategy,
                compute_backend=backend, collect_metrics=True,
            ).run(2)
            for backend in ("reference", "vectorized")
        ]
        reference, vectorized = results
        assert reference == vectorized
        assert (
            reference.merged_metrics().counters
            == vectorized.merged_metrics().counters
        )
        assert reference.runs[0].n_pairs > 0

    def test_instrumented_counters_identical(self):
        config = _small_config()
        kwargs = dict(seed=5, mndp_rounds=2, collect_metrics=True)
        reference = NetworkExperiment(
            config, compute_backend="reference", **kwargs
        ).run(2)
        vectorized = NetworkExperiment(
            config, compute_backend="vectorized", **kwargs
        ).run(2)
        want = reference.merged_metrics()
        got = vectorized.merged_metrics()
        assert want.counters == got.counters
        assert want.histograms.keys() == got.histograms.keys()
        for name in want.histograms:
            assert want.histograms[name] == got.histograms[name], name

    def test_parallel_matches_serial_per_backend(self):
        config = _small_config()
        with WorkerPool(2) as pool:
            for backend in ("reference", "vectorized"):
                experiment = NetworkExperiment(
                    config, seed=13, compute_backend=backend,
                    collect_metrics=True,
                )
                serial = experiment.run(4)
                parallel = pool.run(experiment, range(4))
                assert serial == parallel
                assert (
                    serial.merged_metrics().counters
                    == parallel.merged_metrics().counters
                )

    def test_backend_property_and_validation(self):
        config = _small_config()
        assert (
            NetworkExperiment(config, seed=1).compute_backend
            == "vectorized"
        )
        with pytest.raises(ConfigurationError):
            NetworkExperiment(config, seed=1, compute_backend="cuda")


class TestSharedCountKernel:
    """The vectorized shared-code kernel counts eight rounds per
    ``uint64`` lane and folds each lane's bytes into one count; the
    counts must stay exact for any ``m``, including ``m > 255`` where a
    single byte fold would overflow."""

    @staticmethod
    def _counts(backend, pairs, assignment, compromised):
        experiment = NetworkExperiment(
            _small_config(), seed=1, compute_backend=backend
        )
        chunks = list(
            experiment._shared_counts(pairs, assignment, compromised)
        )
        return (
            np.concatenate([safe for _, _, safe, _ in chunks]),
            np.concatenate([comp for _, _, _, comp in chunks]),
        )

    @pytest.mark.parametrize("m", [1, 7, 200, 300])
    @pytest.mark.parametrize("share_count", [2, 12, 60])
    def test_counts_match_membership_reference(self, m, share_count):
        """``share_count == n`` makes every pair share all ``m`` rounds
        (``w = 1``), so at ``m`` = 300 every count passes 255."""
        n_nodes = 60
        rng = np.random.default_rng(1000 * m + share_count)
        assignment = PreDistributor(n_nodes, m, share_count).assign(rng)
        compromised = rng.random(assignment.pool_size) < 0.3
        pairs = np.array(
            [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)],
            dtype=np.int64,
        )
        want = self._counts("reference", pairs, assignment, compromised)
        got = self._counts("vectorized", pairs, assignment, compromised)
        assert np.array_equal(want[0], got[0])
        assert np.array_equal(want[1], got[1])
        if share_count == n_nodes:
            assert (got[0] + got[1] == m).all()

    @pytest.mark.parametrize("lanes", [1, 30, 31, 32, 80])
    def test_lane_counts_are_exact(self, lanes):
        rng = np.random.default_rng(lanes)
        ones = np.ones((64, 8 * lanes), dtype=bool)
        ones[1:] = rng.random((63, 8 * lanes)) < 0.7
        counts = _lane_counts(ones.view(np.uint64))
        assert counts.dtype == np.int64
        assert np.array_equal(counts, ones.sum(axis=1))
        assert counts[0] == 8 * lanes
