"""Seeded distribution-equivalence of the chip and chipless PHYs.

The chipless model's whole claim is that it computes *the same random
variable* as the chip-level reference without materialising chips.  The
per-draw PHYs of both live in :mod:`repro.oracles`.  Three layers of
evidence:

- **exact** — at ``phy_noise_std = 0`` the two oracles consume
  identical rng streams and must produce bit-for-bit identical outcomes
  for every message, sub-session, and pair, across jammer strategies
  and shared-code counts;
- **distributional** — with noise the chip PHY draws per-chip AWGN
  and the chipless PHY the equivalent per-bit ``N(0, sigma/sqrt(N))``
  correlation noise, so outcomes agree in distribution (checked with a
  normal-approximation tolerance on survival frequencies);
- **runner level** — the runtime's batched chipless sweep agrees in
  rate with the chip oracle run over the same field snapshot.

``tau = 0.25`` keeps the chip scan's false-lock probability at N = 512
negligible (~1e-12 per position) so stream identity is exact in
practice, not just in expectation.
"""

import math

import numpy as np
import pytest

from repro.adversary.jammer import JammerStrategy, JammingModel
from repro.core.config import JRSNDConfig
from repro.dsss.spread_code import CodePool
from repro.errors import ConfigurationError
from repro.experiments.runner import NetworkExperiment
from repro.oracles import (
    make_pair_phy,
    reference_run,
    run_point_state,
    sample_dndp_chip,
)

N_COMPROMISED_CODES = 20
POOL_SEED = 424242


def _config(**overrides):
    base = dict(
        n_nodes=40,
        codes_per_node=10,
        share_count=5,
        n_compromised=4,
        tau=0.25,
        field_width=800.0,
        field_height=800.0,
    )
    base.update(overrides)
    return JRSNDConfig(**base)


def _jamming(strategy):
    return JammingModel(
        strategy, frozenset(range(N_COMPROMISED_CODES)), z=8, mu=1.0
    )


@pytest.fixture(scope="module")
def pool():
    config = _config()
    return CodePool.generate(
        config.pool_size, config.code_length, POOL_SEED
    )


class TestExactEquivalenceNoiseless:
    @pytest.mark.parametrize("strategy", list(JammerStrategy))
    def test_subsession_outcomes_identical(self, pool, strategy):
        config = _config()
        jamming = _jamming(strategy)
        chip = make_pair_phy("chip", config, jamming, pool=pool)
        chipless = make_pair_phy("chipless", config, jamming)
        rng_chip = np.random.default_rng(2011)
        rng_chipless = np.random.default_rng(2011)
        for trial in range(40):
            code = trial % 40  # alternates compromised and safe codes
            assert chip.subsession_survives(
                code, rng_chip
            ) == chipless.subsession_survives(code, rng_chipless)
            # Stream identity: both backends consumed exactly the same
            # number of draws, including across early burst exits.
            assert rng_chip.integers(1 << 30) == rng_chipless.integers(
                1 << 30
            )

    @pytest.mark.parametrize(
        "strategy", [JammerStrategy.REACTIVE, JammerStrategy.RANDOM]
    )
    @pytest.mark.parametrize("n_shared", [1, 3, 6])
    def test_sample_pair_identical(self, pool, strategy, n_shared):
        config = _config()
        jamming = _jamming(strategy)
        chip = make_pair_phy("chip", config, jamming, pool=pool)
        chipless = make_pair_phy("chipless", config, jamming)
        rng_chip = np.random.default_rng(99)
        rng_chipless = np.random.default_rng(99)
        share_rng = np.random.default_rng(n_shared)
        for _ in range(12):
            # Mixed bags of compromised and safe shared codes.
            shared = share_rng.choice(
                2 * N_COMPROMISED_CODES, size=n_shared, replace=False
            )
            a = chip.sample_pair([int(c) for c in shared], rng_chip)
            b = chipless.sample_pair(
                [int(c) for c in shared], rng_chipless
            )
            assert a == b  # success and surviving codes

    def test_redundancy_off_identical(self, pool):
        config = _config()
        jamming = _jamming(JammerStrategy.INTELLIGENT)
        chip = make_pair_phy("chip", config, jamming, pool=pool)
        chipless = make_pair_phy("chipless", config, jamming)
        rng_chip = np.random.default_rng(5)
        rng_chipless = np.random.default_rng(5)
        for _ in range(10):
            a = chip.sample_pair([1, 2, 25], rng_chip, redundancy=False)
            b = chipless.sample_pair(
                [1, 2, 25], rng_chipless, redundancy=False
            )
            assert a == b


class TestDistributionalEquivalenceNoisy:
    """With AWGN the streams diverge (per-chip vs per-bit draws) but the
    outcome distributions must agree."""

    @pytest.mark.parametrize(
        "strategy,noise_std",
        [
            (JammerStrategy.REACTIVE, 3.0),
            (JammerStrategy.RANDOM, 6.0),
        ],
    )
    def test_hello_survival_rates_agree(self, pool, strategy, noise_std):
        config = _config(phy_noise_std=noise_std)
        jamming = _jamming(strategy)
        chip = make_pair_phy("chip", config, jamming, pool=pool)
        chipless = make_pair_phy("chipless", config, jamming)
        trials = 150
        rng_chip = np.random.default_rng(31)
        rng_chipless = np.random.default_rng(77)
        chip_rate = sum(
            chip.hello_received(3, rng_chip) for _ in range(trials)
        ) / trials
        chipless_rate = sum(
            chipless.hello_received(3, rng_chipless)
            for _ in range(trials)
        ) / trials
        pooled = (chip_rate + chipless_rate) / 2
        sigma = math.sqrt(
            max(pooled * (1 - pooled), 1e-9) * 2 / trials
        )
        assert abs(chip_rate - chipless_rate) < max(5 * sigma, 0.02)

    def test_safe_code_with_noise_agrees(self, pool):
        config = _config(phy_noise_std=8.0)
        jamming = _jamming(JammerStrategy.REACTIVE)
        chip = make_pair_phy("chip", config, jamming, pool=pool)
        chipless = make_pair_phy("chipless", config, jamming)
        trials = 150
        rng_chip = np.random.default_rng(13)
        rng_chipless = np.random.default_rng(17)
        code = 30  # safe: noise is the only loss mechanism
        chip_rate = sum(
            chip.hello_received(code, rng_chip) for _ in range(trials)
        ) / trials
        chipless_rate = sum(
            chipless.hello_received(code, rng_chipless)
            for _ in range(trials)
        ) / trials
        pooled = (chip_rate + chipless_rate) / 2
        sigma = math.sqrt(
            max(pooled * (1 - pooled), 1e-9) * 2 / trials
        )
        assert abs(chip_rate - chipless_rate) < max(5 * sigma, 0.02)
        # The noise must actually be doing something at sigma = 8.
        assert chipless_rate < 1.0


class TestRunnerLevel:
    """The experiment pipeline on the chipless model."""

    def _micro_config(self, **overrides):
        base = dict(
            n_nodes=24,
            codes_per_node=6,
            share_count=4,
            n_compromised=3,
            tau=0.25,
            field_width=600.0,
            field_height=600.0,
        )
        base.update(overrides)
        return JRSNDConfig(**base)

    def test_chip_and_chipless_rates_agree(self):
        # The chip oracle runs over each run's own placement, assignment
        # and compromise, rebuilt from the runner's seed labels.
        config = self._micro_config(phy_backend="chipless")
        chip_successes = 0
        chipless_successes = 0
        pairs = 0
        for seed in range(4):
            chipless = NetworkExperiment(
                config, seed=seed, strategy=JammerStrategy.RANDOM
            ).run(1).runs[0]
            state = run_point_state(config, seed, JammerStrategy.RANDOM)
            chip = sample_dndp_chip(config, *state)
            assert len(chip) == chipless.n_pairs  # same placement
            chip_successes += int(chip.sum())
            chipless_successes += chipless.dndp_successes
            pairs += chipless.n_pairs
        p = (chip_successes + chipless_successes) / (2 * pairs)
        sigma = math.sqrt(max(p * (1 - p), 1e-9) * 2 / pairs)
        assert abs(chip_successes - chipless_successes) / pairs < max(
            5 * sigma, 0.05
        )

    def test_chipless_reference_equals_vectorized(self):
        config = self._micro_config(phy_backend="chipless")
        for strategy in (JammerStrategy.REACTIVE, JammerStrategy.RANDOM):
            reference = [
                reference_run(config, 3, index, strategy=strategy)
                for index in range(3)
            ]
            vectorized = NetworkExperiment(
                config, seed=3, strategy=strategy
            ).run(3)
            assert list(vectorized.runs) == reference

    def test_chipless_parallel_equals_serial(self):
        from repro.experiments.pool import WorkerPool

        experiment = NetworkExperiment(
            self._micro_config(), seed=8, phy_backend="chipless"
        )
        with WorkerPool(2) as pool:
            parallel = pool.run(experiment, range(3))
        assert experiment.run(3) == parallel

    def test_phy_backend_override_argument(self):
        config = self._micro_config()
        experiment = NetworkExperiment(
            config, seed=1, phy_backend="chipless"
        )
        assert experiment.config.phy_backend == "chipless"
        with pytest.raises(Exception):
            NetworkExperiment(config, seed=1, phy_backend="bogus")
        with pytest.raises(ConfigurationError, match="phy_backend"):
            NetworkExperiment(config, seed=1, phy_backend="chip")

    def test_chipless_presets_resolve(self):
        from repro.experiments.scenarios import preset_config

        assert preset_config("tiny-chipless").phy_backend == "chipless"
        assert preset_config("paper-chipless").phy_backend == "chipless"
        assert preset_config("paper-chipless").n_nodes == 2000

    def test_phy_metrics_reported(self):
        from repro.obs import names as _names

        config = self._micro_config(phy_backend="chipless")
        result = NetworkExperiment(
            config, seed=2, collect_metrics=True
        ).run(1)
        metrics = result.merged_metrics()
        counters = dict(metrics.counters)
        assert counters.get(_names.PHY_PAIRS_SWEPT, 0) > 0


class TestProbabilityTable:
    """The sweep reads each pair's success probability from a table
    built once per run; it equals the per-pair closed form bit for
    bit, so every outcome equals a sweep that computes it pair by
    pair."""

    @pytest.mark.parametrize(
        "strategy, noise_std",
        [
            (JammerStrategy.RANDOM, 0.0),
            (JammerStrategy.REACTIVE, 2.0),
            (JammerStrategy.RANDOM, 1.0),
        ],
    )
    def test_sweep_equals_the_per_pair_form(self, strategy, noise_std):
        from repro.dsss.phy import ChiplessModel
        from repro.experiments.runner import FieldSnapshot
        from repro.experiments.scenarios import preset_config

        config = preset_config("paper-chipless").replace(
            n_compromised=60, phy_noise_std=noise_std
        )
        experiment = NetworkExperiment(config, seed=17, strategy=strategy)
        for run_index in range(2):
            snapshot = FieldSnapshot(experiment.snapshot_key(run_index))
            pairs = snapshot.pairs
            assignment, compromised, jamming = experiment._code_state(
                snapshot
            )
            got = experiment._sample_dndp_chipless(
                pairs, assignment, compromised, jamming,
                snapshot.seeds.rng("jamming"),
            )
            model = ChiplessModel(config, jamming)
            rng = snapshot.seeds.rng("jamming")
            want = np.zeros(len(pairs), dtype=bool)
            fractional = 0
            for start, stop, safe, comp in experiment._shared_counts(
                pairs, assignment, compromised
            ):
                probability = model.pair_success_probability(safe, comp)
                fractional += int(
                    ((probability > 0) & (probability < 1)).sum()
                )
                want[start:stop] = rng.random(stop - start) < probability
            assert fractional > 0
            assert np.array_equal(got, want)

    def test_table_entries_equal_the_closed_form(self):
        from repro.dsss.phy import ChiplessModel

        config = JRSNDConfig(phy_backend="chipless", phy_noise_std=1.0)
        jamming = JammingModel(JammerStrategy.RANDOM, range(900), 8, 1.0)
        model = ChiplessModel(config, jamming)
        m = config.codes_per_node
        counts = np.arange(m + 1)
        table = model.pair_success_probability(
            counts[:, None], counts[None, :]
        ).ravel()
        rng = np.random.default_rng(4)
        safe = rng.integers(0, m + 1, 50_000)
        comp = rng.integers(0, m + 1 - safe)
        assert np.array_equal(
            np.take(table, safe * (m + 1) + comp),
            model.pair_success_probability(safe, comp),
        )
