"""Unit tests for the chipless PHY model and its per-draw oracle.

The chip vs chipless *equivalence* suite lives in
``tests/experiments/test_phy_equivalence.py``; this file covers the
chipless model's own guarantees: validation, the jam geometry, the
closed-form probabilities, and the Monte Carlo agreement between
:class:`repro.oracles.ChiplessPairPHY` draws and :class:`ChiplessModel`
numbers.
"""

import math

import numpy as np
import pytest

from repro.adversary.jammer import JammerStrategy, JammingModel
from repro.core.config import JRSNDConfig
from repro.dsss.phy import (
    PHY_BACKENDS,
    ChiplessModel,
    message_success_probability,
)
from repro.errors import ConfigurationError
from repro.oracles import ChiplessPairPHY, make_pair_phy


def _config(**overrides):
    base = dict(
        n_nodes=40,
        codes_per_node=10,
        share_count=5,
        n_compromised=4,
        field_width=800.0,
        field_height=800.0,
    )
    base.update(overrides)
    return JRSNDConfig(**base)


def _jamming(strategy=JammerStrategy.REACTIVE, codes=range(20)):
    return JammingModel(strategy, frozenset(codes), z=8, mu=1.0)


def _chipless(config, jamming):
    return make_pair_phy("chipless", config, jamming)


class TestFactory:
    def test_backends_tuple(self):
        assert PHY_BACKENDS == ("message", "chipless")

    def test_message_backend_returns_none(self):
        assert make_pair_phy("message", _config(), _jamming()) is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            make_pair_phy("waveform", _config(), _jamming())

    def test_chip_backend_needs_pool(self):
        with pytest.raises(ConfigurationError):
            make_pair_phy("chip", _config(), _jamming())

    def test_chipless_is_chipless(self):
        phy = _chipless(_config(), _jamming())
        assert isinstance(phy, ChiplessPairPHY)
        assert phy.backend == "chipless"


class TestChiplessOutcomes:
    def test_clean_code_always_delivered_noiseless(self):
        phy = _chipless(_config(), _jamming())
        rng = np.random.default_rng(0)
        # Code 4999 is outside the compromised set: no jam, no noise,
        # every message and every sub-session goes through.
        assert all(
            phy.subsession_survives(4999, rng) for _ in range(50)
        )

    def test_session_codes_never_jammed(self):
        phy = _chipless(_config(), _jamming(JammerStrategy.REACTIVE))
        rng = np.random.default_rng(1)
        assert all(
            phy.message_received("auth", "session", rng)
            for _ in range(50)
        )

    def test_reactive_jam_kills_compromised_subsessions(self):
        phy = _chipless(_config(), _jamming(JammerStrategy.REACTIVE))
        rng = np.random.default_rng(2)
        survived = sum(
            phy.subsession_survives(3, rng) for _ in range(200)
        )
        # Closed form says ~1.7e-11; observing even one survival in 200
        # draws would be a model bug.
        assert survived == 0

    def test_intelligent_spares_hellos(self):
        phy = _chipless(_config(), _jamming(JammerStrategy.INTELLIGENT))
        rng = np.random.default_rng(3)
        assert all(
            phy.hello_received(3, rng) for _ in range(50)
        )
        assert not any(
            phy.burst_received(3, rng) for _ in range(50)
        )

    def test_amplitude_one_erases_instead_of_flipping(self):
        # At a = 1 a disagreeing jam bit cancels the correlation to 0:
        # erasures but never flips, so a fully-jammed 42/21 message
        # fails only via the budget f <= n - k (and acquisition).
        config = _config(phy_jam_amplitude=1.0)
        jammed = message_success_probability(
            42, 21, config.tau, 0.0, 1.0, 0, 42
        )
        flip_jammed = message_success_probability(
            42, 21, config.tau, 0.0, 2.0, 0, 42
        )
        # Erasures cost 1 against the budget, flips cost 2: the a = 1
        # jam is strictly easier to survive.
        assert jammed > flip_jammed

    def test_noise_draw_order_is_stable(self):
        config = _config(phy_noise_std=2.0)
        phy = _chipless(config, _jamming())
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        outcomes_a = [phy.message_received("hello", 3, a) for _ in range(30)]
        outcomes_b = [phy.message_received("hello", 3, b) for _ in range(30)]
        assert outcomes_a == outcomes_b


class TestClosedForm:
    def test_clean_noiseless_message_is_certain(self):
        assert message_success_probability(
            42, 21, 0.15, 0.0, 2.0, 42, 0
        ) == pytest.approx(1.0)

    def test_full_flip_jam_binomial(self):
        # a = 2, sigma = 0: every jammed bit flips with prob 1/2; the
        # message survives iff 2 * Binom(n, 1/2) <= n - k.
        n, k = 10, 5
        expected = sum(
            math.comb(n, e) * 0.5**n
            for e in range(n + 1)
            if 2 * e <= n - k
        )
        assert message_success_probability(
            n, k, 0.15, 0.0, 2.0, 0, n
        ) == pytest.approx(expected)

    def test_probability_bounds(self):
        for jam_len in (0, 10, 42):
            for sigma in (0.0, 0.02, 0.2):
                p = message_success_probability(
                    42, 21, 0.15, sigma, 2.0, 42 - jam_len, jam_len
                )
                assert 0.0 <= p <= 1.0

    def test_noise_monotonically_hurts_clean_messages(self):
        probs = [
            message_success_probability(42, 21, 0.15, sigma, 2.0, 42, 0)
            for sigma in (0.0, 0.1, 0.3, 0.5)
        ]
        assert probs == sorted(probs, reverse=True)
        assert probs[0] == pytest.approx(1.0)

    def test_model_matches_monte_carlo(self):
        # The ChiplessModel numbers must match empirical ChiplessPairPHY
        # frequencies — the closed form IS the sampled model integrated.
        config = _config(phy_noise_std=1.5)
        jamming = _jamming(JammerStrategy.RANDOM)
        model = ChiplessModel(config, jamming)
        phy = _chipless(config, jamming)
        rng = np.random.default_rng(11)
        trials = 4000
        comp = sum(
            phy.subsession_survives(3, rng) for _ in range(trials)
        ) / trials
        safe = sum(
            phy.subsession_survives(4999, rng) for _ in range(trials)
        ) / trials
        for observed, expected in (
            (comp, model.p_compromised_subsession),
            (safe, model.p_safe_subsession),
        ):
            sigma = math.sqrt(
                max(expected * (1 - expected), 1e-9) / trials
            )
            assert abs(observed - expected) < max(5 * sigma, 0.01)

    def test_pair_success_vectorised(self):
        model = ChiplessModel(_config(), _jamming())
        p = model.pair_success_probability(
            np.array([0, 1, 3]), np.array([0, 0, 2])
        )
        assert p.shape == (3,)
        assert p[0] == pytest.approx(0.0)
        assert p[1] == pytest.approx(1.0)  # safe code, sigma = 0
        assert np.all((0.0 <= p) & (p <= 1.0))


class TestValidation:
    def test_bad_tau(self):
        with pytest.raises(ConfigurationError):
            ChiplessPairPHY(
                _jamming(), code_length=512, tau=1.5,
                hello_shape=(42, 21), auth_shape=(160, 80),
            )

    def test_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            ChiplessPairPHY(
                _jamming(), code_length=512, tau=0.15,
                hello_shape=(21, 42), auth_shape=(160, 80),
            )

    def test_negative_noise(self):
        with pytest.raises(ConfigurationError):
            ChiplessPairPHY(
                _jamming(), code_length=512, tau=0.15,
                hello_shape=(42, 21), auth_shape=(160, 80),
                noise_std=-0.1,
            )

    def test_config_rejects_unknown_phy_backend(self):
        with pytest.raises(ConfigurationError):
            _config(phy_backend="analog")
        # The chip PHY is a test oracle (repro.oracles), not a backend.
        with pytest.raises(ConfigurationError, match="phy_backend"):
            _config(phy_backend="chip")

    def test_config_accepts_all_backends(self):
        for backend in PHY_BACKENDS:
            assert _config(phy_backend=backend).phy_backend == backend
