"""Unit tests for the jamming models (the Theorem 1 adversaries)."""

import numpy as np
import pytest

from repro.adversary.jammer import JammerStrategy, JammingModel, MediumJammer
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.field import RectangularField
from repro.sim.medium import RadioMedium


def _model(strategy, codes, z=8, mu=1.0):
    return JammingModel(strategy, frozenset(codes), z, mu)


class TestJammingModel:
    def test_codes_per_message(self):
        model = _model(JammerStrategy.RANDOM, range(100), z=8, mu=1.0)
        assert model.codes_per_message == 16  # z (1+mu)/mu

    def test_beta_formula(self):
        model = _model(JammerStrategy.RANDOM, range(100), z=8, mu=1.0)
        assert model.random_success_probability() == pytest.approx(
            16 / 100
        )

    def test_beta_capped_at_one(self):
        model = _model(JammerStrategy.RANDOM, range(4), z=8, mu=1.0)
        assert model.random_success_probability() == 1.0

    def test_no_codes_no_success(self, rng):
        model = _model(JammerStrategy.REACTIVE, [])
        assert model.random_success_probability() == 0.0
        assert not model.message_jammed(5, rng)

    def test_reactive_jams_compromised_always(self, rng):
        model = _model(JammerStrategy.REACTIVE, [5])
        assert all(model.message_jammed(5, rng) for _ in range(20))

    def test_reactive_ignores_safe_code(self, rng):
        model = _model(JammerStrategy.REACTIVE, [5])
        assert not model.message_jammed(6, rng)

    def test_session_codes_never_jammed(self, rng):
        model = _model(JammerStrategy.REACTIVE, [5])
        assert not model.message_jammed(("session", 1, 2), rng)
        assert not model.burst_jammed(("session", 1, 2), 3, rng)

    def test_random_rate_matches_beta(self, rng):
        model = _model(JammerStrategy.RANDOM, range(200), z=8, mu=1.0)
        hits = sum(model.message_jammed(0, rng) for _ in range(4000))
        assert hits / 4000 == pytest.approx(16 / 200, abs=0.02)

    def test_burst_rate_matches_beta_prime(self, rng):
        model = _model(JammerStrategy.RANDOM, range(200), z=8, mu=1.0)
        hits = sum(model.burst_jammed(0, 3, rng) for _ in range(4000))
        assert hits / 4000 == pytest.approx(3 * 16 / 200, abs=0.03)

    def test_burst_capped(self, rng):
        model = _model(JammerStrategy.RANDOM, range(10), z=8, mu=1.0)
        assert all(model.burst_jammed(0, 3, rng) for _ in range(20))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JammingModel("bad", frozenset(), 8, 1.0)
        with pytest.raises(ConfigurationError):
            _model(JammerStrategy.RANDOM, [], z=0)
        with pytest.raises(ConfigurationError):
            _model(JammerStrategy.RANDOM, [], mu=0)


class TestMediumJammer:
    def _setup(self, strategy, codes, rng):
        simulator = Simulator()
        field = RectangularField(100, 100, 50)
        medium = RadioMedium(simulator, field, mu=1.0)
        medium.register_node(0, lambda: (0, 0))
        medium.register_node(1, lambda: (10, 0))
        jammer = MediumJammer(
            _model(strategy, codes), rng
        )
        medium.add_jammer(jammer)
        return simulator, medium, jammer

    def test_reactive_kills_compromised_transmission(self, rng):
        simulator, medium, jammer = self._setup(
            JammerStrategy.REACTIVE, [7], rng
        )
        got = []
        medium.listen(1, 7, got.append)
        medium.transmit(0, 7, "frame", duration=1.0)
        simulator.run()
        assert got == []
        assert jammer.effective == 1

    def test_reactive_cannot_touch_safe_code(self, rng):
        simulator, medium, jammer = self._setup(
            JammerStrategy.REACTIVE, [7], rng
        )
        got = []
        medium.listen(1, 9, got.append)
        medium.transmit(0, 9, "frame", duration=1.0)
        simulator.run()
        assert len(got) == 1

    def test_session_code_transmission_safe(self, rng):
        simulator, medium, jammer = self._setup(
            JammerStrategy.REACTIVE, [7], rng
        )
        got = []
        medium.listen(1, ("session", 1), got.append)
        medium.transmit(0, ("session", 1), "frame", duration=1.0)
        simulator.run()
        assert len(got) == 1

    def test_random_jammer_sometimes_misses(self, rng):
        delivered = 0
        for trial in range(200):
            simulator, medium, jammer = self._setup(
                JammerStrategy.RANDOM, range(100), rng
            )
            got = []
            medium.listen(1, 7, got.append)
            medium.transmit(0, 7, "frame", duration=1.0)
            simulator.run()
            delivered += len(got)
        # beta = 16/100, so ~84% should get through.
        assert delivered / 200 == pytest.approx(0.84, abs=0.08)


class TestCompromisedCodeInput:
    @pytest.mark.parametrize(
        "codes", [[1.5], [True], np.array([1.0, 2.0]), ["3"]]
    )
    def test_non_integer_codes_rejected(self, codes):
        with pytest.raises(ConfigurationError):
            JammingModel(JammerStrategy.REACTIVE, codes, 8, 1.0)

    @pytest.mark.parametrize(
        "codes",
        [[7, 3, 3], frozenset({3, 7}), np.array([7, 3, 7]), np.array([3, 7])],
    )
    def test_duplicates_count_once(self, codes):
        model = JammingModel(JammerStrategy.RANDOM, codes, 8, 1.0)
        assert model.n_compromised == 2
        assert model.knows(3) and model.knows(7) and not model.knows(4)
