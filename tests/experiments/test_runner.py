"""Unit tests for the Monte Carlo field experiment."""

import numpy as np
import pytest

from repro.adversary.compromise import CompromiseModel
from repro.adversary.jammer import JammerStrategy, JammingModel
from repro.analysis.dndp_theory import (
    dndp_lower_bound,
    dndp_upper_bound,
)
from repro.core.config import JRSNDConfig
from repro.core.dndp import DNDPSampler
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentResult, NetworkExperiment, RunResult
from repro.experiments.scenarios import preset_config
from repro.predistribution.authority import PreDistributor
from repro.utils.rng import derive_rng


SMALL = JRSNDConfig(
    n_nodes=400,
    codes_per_node=20,
    share_count=15,
    n_compromised=10,
    field_width=2000.0,
    field_height=2000.0,
    tx_range=300.0,
)


class TestRunResult:
    def test_probabilities(self):
        run = RunResult(
            n_pairs=100, dndp_successes=60, mndp_successes=20,
            mean_degree=10.0,
        )
        assert run.p_dndp == pytest.approx(0.6)
        assert run.p_mndp == pytest.approx(0.5)  # 20 of 40 failures
        assert run.p_jrsnd == pytest.approx(0.8)

    def test_empty_run(self):
        run = RunResult(0, 0, 0, 0.0)
        assert run.p_dndp == 0.0
        assert run.p_mndp == 0.0
        assert run.p_jrsnd == 0.0


class TestExperimentResult:
    def test_aggregation(self):
        runs = (
            RunResult(100, 50, 10, 10.0),
            RunResult(100, 70, 10, 12.0),
        )
        result = ExperimentResult(runs)
        assert result.discovery_probability("dndp") == pytest.approx(0.6)
        assert result.mean_degree() == pytest.approx(11.0)
        # Sample std (ddof=1) of [0.5, 0.7]: sqrt(2 * 0.1^2 / 1).
        assert result.std("dndp") == pytest.approx(0.1 * np.sqrt(2.0))

    def test_unknown_kind(self):
        result = ExperimentResult((RunResult(1, 1, 0, 1.0),))
        with pytest.raises(ConfigurationError):
            result.discovery_probability("nope")


class TestStdUsesSampleVariance:
    """Regression: ``std`` used ``np.std`` with the default ``ddof=0``
    (population sigma) while ``confidence_interval`` divided by n-1 —
    the quoted spread and the error bars disagreed, with the std biased
    low by sqrt((n-1)/n) at the paper's run counts."""

    def test_hand_computed_ddof1(self):
        runs = tuple(
            RunResult(100, s, 0, 10.0) for s in (40, 50, 60, 70)
        )
        result = ExperimentResult(runs)
        values = [0.4, 0.5, 0.6, 0.7]
        mean = sum(values) / 4
        sample_var = sum((v - mean) ** 2 for v in values) / 3
        assert result.std("dndp") == pytest.approx(
            float(np.sqrt(sample_var))
        )
        # And it now matches the t-interval's variance estimate:
        # half-width = t * sqrt(var / n).
        from scipy import stats as scipy_stats

        _, low, high = result.confidence_interval("dndp")
        half = scipy_stats.t.ppf(0.975, 3) * np.sqrt(sample_var / 4)
        assert (high - low) / 2 == pytest.approx(half)

    def test_single_run_yields_zero(self):
        result = ExperimentResult((RunResult(100, 50, 0, 10.0),))
        assert result.std("dndp") == 0.0

    def test_no_qualifying_runs_yields_zero(self):
        # All runs failure-free: the mndp series is empty.
        result = ExperimentResult((RunResult(10, 10, 0, 5.0),))
        assert result.std("mndp") == 0.0


class TestEmptyAndWeightedAggregation:
    """Regression: ``mean_degree``/``mean_dndp_latency`` called
    ``np.mean`` on empty sequences (RuntimeWarning + nan, which a
    results store would then persist), and the latency mean ignored
    how many handshakes each run's mean represented."""

    def test_empty_runs_mean_degree_is_zero_and_warning_free(self):
        import warnings

        result = ExperimentResult(runs=())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert result.mean_degree() == 0.0
            assert result.mean_dndp_latency() is None

    def test_no_latency_samples_is_none(self):
        result = ExperimentResult(
            (RunResult(100, 50, 10, 10.0), RunResult(100, 60, 5, 9.0))
        )
        assert result.mean_dndp_latency() is None

    def test_latency_weighted_by_success_count(self):
        runs = (
            RunResult(100, 90, 0, 10.0, mean_dndp_latency=2.0),
            RunResult(100, 10, 0, 10.0, mean_dndp_latency=4.0),
        )
        result = ExperimentResult(runs)
        # 90 successes at 2.0 s, 10 at 4.0 s -> 2.2 s, not the
        # unweighted 3.0 s.
        assert result.mean_dndp_latency() == pytest.approx(2.2)

    def test_zero_success_latency_run_excluded(self):
        runs = (
            RunResult(100, 0, 0, 10.0, mean_dndp_latency=9.9),
            RunResult(100, 50, 0, 10.0, mean_dndp_latency=1.0),
        )
        result = ExperimentResult(runs)
        assert result.mean_dndp_latency() == pytest.approx(1.0)


class TestNetworkExperiment:
    def test_reproducible(self):
        a = NetworkExperiment(SMALL, seed=3).run_once(0)
        b = NetworkExperiment(SMALL, seed=3).run_once(0)
        assert a == b

    def test_different_runs_differ(self):
        exp = NetworkExperiment(SMALL, seed=3)
        assert exp.run_once(0) != exp.run_once(1)

    def test_reactive_within_theorem1_bounds(self):
        result = NetworkExperiment(
            SMALL, seed=5, strategy=JammerStrategy.REACTIVE
        ).run(4)
        p = result.discovery_probability("dndp")
        low = dndp_lower_bound(SMALL, SMALL.n_compromised)
        high = dndp_upper_bound(SMALL, SMALL.n_compromised)
        assert low - 0.05 <= p <= high + 0.05
        assert p == pytest.approx(low, abs=0.05)

    def test_random_close_to_upper_bound(self):
        result = NetworkExperiment(
            SMALL, seed=5, strategy=JammerStrategy.RANDOM
        ).run(4)
        p = result.discovery_probability("dndp")
        assert p == pytest.approx(
            dndp_upper_bound(SMALL, SMALL.n_compromised), abs=0.05
        )

    def test_random_at_least_reactive(self):
        reactive = NetworkExperiment(
            SMALL, seed=5, strategy=JammerStrategy.REACTIVE
        ).run(3)
        random_ = NetworkExperiment(
            SMALL, seed=5, strategy=JammerStrategy.RANDOM
        ).run(3)
        assert (
            random_.discovery_probability("dndp")
            >= reactive.discovery_probability("dndp") - 0.02
        )

    def test_jrsnd_combines(self):
        result = NetworkExperiment(SMALL, seed=5).run(2)
        p_d = result.discovery_probability("dndp")
        p_j = result.discovery_probability("jrsnd")
        assert p_j >= p_d

    def test_latency_sampling(self):
        result = NetworkExperiment(
            SMALL, seed=5, sample_latency=True
        ).run(1)
        assert result.mean_dndp_latency() is not None
        assert result.mean_dndp_latency() > 0

    def test_mndp_rounds_monotone(self):
        one = NetworkExperiment(SMALL, seed=5, mndp_rounds=1).run(2)
        three = NetworkExperiment(SMALL, seed=5, mndp_rounds=3).run(2)
        assert (
            three.discovery_probability("jrsnd")
            >= one.discovery_probability("jrsnd") - 1e-9
        )


class TestVectorizedSamplerEquivalence:
    def test_matches_reference_sampler(self, rng):
        """The vectorized D-NDP path and DNDPSampler agree statistically."""
        config = SMALL.replace(n_compromised=40)
        distributor = PreDistributor(
            config.n_nodes, config.codes_per_node, config.share_count
        )
        assignment = distributor.assign(rng)
        compromise = CompromiseModel(assignment).compromise_random(40, rng)

        for strategy in (JammerStrategy.REACTIVE, JammerStrategy.RANDOM):
            jamming = JammingModel.from_compromise(
                strategy, compromise, config.z_jamming_signals, config.mu
            )
            pairs = [
                (a, b)
                for a in range(0, 400, 2)
                for b in range(a + 1, min(a + 40, 400), 3)
            ]
            exp = NetworkExperiment(config, seed=0, strategy=strategy)
            compromised = np.zeros(assignment.pool_size, dtype=bool)
            compromised[sorted(compromise.codes)] = True
            vector = exp._sample_dndp(
                np.array(pairs), assignment, compromised, jamming,
                derive_rng(1, "v"),
            )
            sampler = DNDPSampler(config, jamming)
            reference = np.array(
                [
                    sampler.sample_pair(
                        assignment.shared_codes(a, b), derive_rng(a * 1000 + b, "r")
                    ).success
                    for a, b in pairs
                ]
            )
            assert abs(vector.mean() - reference.mean()) < 0.04, strategy


class TestIndependentLinkModel:
    def test_dndp_matches_closed_form_exactly(self):
        """With i.i.d. links the measured P_D is the Theorem 1 value by
        construction (up to sampling error)."""
        exp = NetworkExperiment(SMALL, seed=4, link_model="independent")
        result = exp.run(4)
        expected = dndp_lower_bound(SMALL, SMALL.n_compromised)
        assert result.discovery_probability("dndp") == pytest.approx(
            expected, abs=0.02
        )

    def test_random_strategy_uses_upper_bound(self):
        exp = NetworkExperiment(
            SMALL, seed=4, strategy=JammerStrategy.RANDOM,
            link_model="independent",
        )
        result = exp.run(4)
        assert result.discovery_probability("dndp") == pytest.approx(
            dndp_upper_bound(SMALL, SMALL.n_compromised), abs=0.02
        )

    def test_rejects_unknown_model(self):
        with pytest.raises(ConfigurationError):
            NetworkExperiment(SMALL, seed=1, link_model="magic")

    def test_independent_less_mndp_recovery_at_heavy_compromise(self):
        """The headline divergence: relay correlations in the faithful
        model outperform i.i.d. links at small nu under heavy
        compromise (see EXPERIMENTS.md)."""
        heavy = SMALL.replace(n_compromised=60, nu=2)
        faithful = NetworkExperiment(
            heavy, seed=4, link_model="codes"
        ).run(3)
        independent = NetworkExperiment(
            heavy, seed=4, link_model="independent"
        ).run(3)
        assert faithful.discovery_probability("mndp") > (
            independent.discovery_probability("mndp") - 0.03
        )


class TestIndependentModelSkipsCodeState:
    """The independent link model reads no code, so it builds no code
    assignment unless latency sampling needs the jamming model; the
    skip moves no rng stream and changes no result."""

    @pytest.mark.parametrize(
        "strategy", [JammerStrategy.REACTIVE, JammerStrategy.RANDOM]
    )
    @pytest.mark.parametrize("nu", [1, 3, 8])
    @pytest.mark.parametrize("q", [0, 60])
    def test_same_run_with_and_without_code_state(self, q, nu, strategy):
        config = preset_config("paper").replace(n_compromised=q, nu=nu)
        for seed in (3, 4):
            lean, full = (
                NetworkExperiment(
                    config, seed=seed, strategy=strategy,
                    link_model="independent", collect_metrics=True,
                    sample_latency=sample_latency,
                ).run_once(seed)
                for sample_latency in (False, True)
            )
            assert lean.mean_dndp_latency is None
            assert full.mean_dndp_latency is not None
            assert (lean.n_pairs, lean.dndp_successes,
                    lean.mndp_successes) == (
                full.n_pairs, full.dndp_successes, full.mndp_successes
            )
            assert (
                lean.metrics.deterministic() == full.metrics.deterministic()
            )

    def test_no_assignment_without_latency(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("independent run drew an assignment")

        monkeypatch.setattr(PreDistributor, "assign", refuse)
        result = NetworkExperiment(
            SMALL, seed=2, link_model="independent"
        ).run_once(0)
        assert result.n_pairs > 0
        with pytest.raises(AssertionError, match="drew an assignment"):
            NetworkExperiment(SMALL, seed=2).run_once(0)


class TestMndpAggregationExcludesZeroFailureRuns:
    """Regression: runs where D-NDP succeeded on every pair carry no
    information about M-NDP recovery; averaging their p_mndp == 0.0
    into the mean biased the recovery rate down."""

    def test_zero_failure_runs_excluded_from_mean(self):
        runs = (
            RunResult(100, 100, 0, 10.0),   # no failures: p_mndp undefined
            RunResult(100, 50, 25, 10.0),   # 25 of 50 failures recovered
        )
        result = ExperimentResult(runs)
        assert result.discovery_probability("mndp") == pytest.approx(0.5)

    def test_std_and_ci_also_exclude(self):
        runs = (
            RunResult(100, 100, 0, 10.0),
            RunResult(100, 50, 20, 10.0),
            RunResult(100, 60, 20, 10.0),
        )
        result = ExperimentResult(runs)
        # Only the two informative runs enter: 0.4 and 0.5; sample std
        # (ddof=1) of those two values is 0.05 * sqrt(2).
        assert result.discovery_probability("mndp") == pytest.approx(0.45)
        assert result.std("mndp") == pytest.approx(0.05 * np.sqrt(2.0))

    def test_all_runs_zero_failures(self):
        runs = (RunResult(10, 10, 0, 5.0), RunResult(10, 10, 0, 5.0))
        result = ExperimentResult(runs)
        assert result.discovery_probability("mndp") == 0.0

    def test_dndp_and_jrsnd_unaffected(self):
        runs = (
            RunResult(100, 100, 0, 10.0),
            RunResult(100, 50, 25, 10.0),
        )
        result = ExperimentResult(runs)
        assert result.discovery_probability("dndp") == pytest.approx(0.75)
        assert result.discovery_probability("jrsnd") == pytest.approx(0.875)


class TestCollectMetrics:
    def test_snapshot_attached_per_run(self):
        exp = NetworkExperiment(SMALL, seed=7, collect_metrics=True)
        result = exp.run(2)
        for run in result.runs:
            assert run.metrics is not None
            assert run.metrics.counter("experiment.runs") == 1
            assert run.metrics.counter("experiment.pairs") == run.n_pairs
            assert (
                run.metrics.counter("experiment.dndp_successes")
                == run.dndp_successes
            )

    def test_merged_metrics_totals(self):
        exp = NetworkExperiment(SMALL, seed=7, collect_metrics=True)
        result = exp.run(2)
        merged = result.merged_metrics()
        assert merged.counter("experiment.runs") == 2
        assert merged.counter("experiment.pairs") == sum(
            r.n_pairs for r in result.runs
        )

    def test_metrics_do_not_affect_equality_or_results(self):
        plain = NetworkExperiment(SMALL, seed=7).run(2)
        instrumented = NetworkExperiment(
            SMALL, seed=7, collect_metrics=True
        ).run(2)
        assert instrumented.runs == plain.runs

    def test_paper_run_metrics_stay_small(self):
        # Histograms travel as value -> count tallies, so a 2000-node
        # run's ~8k recovered pairs cost a few entries, not ~8k samples.
        config = preset_config("paper").replace(n_compromised=60, nu=8)
        run = NetworkExperiment(
            config, seed=7, collect_metrics=True
        ).run_once(0)
        assert run.mndp_successes > 5000
        text = run.metrics.deterministic().to_json(indent=None)
        assert len(text.encode()) < 4096

    def test_default_leaves_metrics_unset(self):
        result = NetworkExperiment(SMALL, seed=7).run(1)
        assert result.runs[0].metrics is None
        assert result.merged_metrics().counters == {}
