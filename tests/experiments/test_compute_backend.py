"""End-to-end equivalence of the experiment compute backends.

The ``compute_backend`` knob swaps the snapshot pipeline between the
original per-item loops (with the node-by-code membership matrix) and
the array implementations (with the round-aligned shared-code kernel);
both must consume identical rng streams and produce identical results,
run results, and instrumented counters.
"""

import pytest

from repro.adversary.jammer import JammerStrategy
from repro.core.config import JRSNDConfig
from repro.errors import ConfigurationError
from repro.experiments.parallel import run_parallel
from repro.experiments.runner import NetworkExperiment


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
        for backend in ("reference", "vectorized"):
            serial = NetworkExperiment(
                config, seed=13, compute_backend=backend,
                collect_metrics=True,
            ).run(4)
            parallel = run_parallel(
                config, seed=13, runs=4, processes=2,
                compute_backend=backend, collect_metrics=True,
            )
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
