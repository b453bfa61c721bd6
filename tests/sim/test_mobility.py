"""Unit tests for placement and mobility models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.field import RectangularField
from repro.sim.mobility import (
    RandomWaypointModel,
    StaticPlacement,
    uniform_positions,
)


@pytest.fixture
def field():
    return RectangularField(1000, 800, 100)


class TestUniformPositions:
    def test_inside_field(self, field, rng):
        for position in uniform_positions(field, 200, rng):
            assert field.contains(position)

    def test_count(self, field, rng):
        assert len(uniform_positions(field, 17, rng)) == 17

    def test_array_of_x_then_y_draws(self, field):
        positions = uniform_positions(field, 50, np.random.default_rng(3))
        draws = np.random.default_rng(3)
        xs = draws.uniform(0.0, field.width, size=50)
        ys = draws.uniform(0.0, field.height, size=50)
        assert positions.dtype == np.float64 and positions.shape == (50, 2)
        assert np.array_equal(positions[:, 0], xs)
        assert np.array_equal(positions[:, 1], ys)

    def test_rejects_zero(self, field, rng):
        with pytest.raises(ConfigurationError):
            uniform_positions(field, 0, rng)


class TestStaticPlacement:
    def test_time_invariant(self, field, rng):
        placement = StaticPlacement.uniform(field, 10, rng)
        assert placement.position(3, 0.0) == placement.position(3, 99.0)

    def test_n_nodes(self, field, rng):
        assert StaticPlacement.uniform(field, 10, rng).n_nodes == 10

    def test_positions_at(self, field, rng):
        placement = StaticPlacement.uniform(field, 5, rng)
        assert len(placement.positions_at(1.0)) == 5

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            StaticPlacement([])
        with pytest.raises(ConfigurationError):
            StaticPlacement(np.empty((0, 2)))

    def test_positions_are_float_tuples(self, field, rng):
        placement = StaticPlacement(uniform_positions(field, 4, rng))
        for position in placement.positions_at():
            assert type(position) is tuple
            assert all(type(c) is float for c in position)


class TestRandomWaypoint:
    def test_positions_stay_inside(self, field, rng):
        model = RandomWaypointModel(field, 5, (1.0, 5.0), 0.0, rng)
        for t in np.linspace(0, 500, 40):
            for node in range(5):
                assert field.contains(model.position(node, float(t)))

    def test_start_position_is_time_zero(self, field, rng):
        model = RandomWaypointModel(field, 3, (1.0, 2.0), 0.0, rng)
        first = model.position(0, 0.0)
        assert field.contains(first)

    def test_movement_continuous(self, field, rng):
        """Positions at close times are close (speed-bounded)."""
        model = RandomWaypointModel(field, 1, (1.0, 5.0), 0.0, rng)
        last = model.position(0, 0.0)
        for t in np.arange(0.5, 100, 0.5):
            current = model.position(0, float(t))
            assert RectangularField.distance(last, current) <= 5.0 * 0.5 + 1e-9
            last = current

    def test_pause_time_holds_position(self, field, rng):
        model = RandomWaypointModel(field, 1, (100.0, 100.0), 1000.0, rng)
        # After the first leg ends the node pauses for 1000 s.
        leg = model._legs[0][0]
        end = leg.end_time
        a = model.position(0, end + 1.0)
        b = model.position(0, end + 500.0)
        assert a == b == leg.end

    def test_rejects_negative_time(self, field, rng):
        model = RandomWaypointModel(field, 1, (1.0, 2.0), 0.0, rng)
        with pytest.raises(ConfigurationError):
            model.position(0, -1.0)

    def test_rejects_bad_speed_range(self, field, rng):
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(field, 1, (5.0, 1.0), 0.0, rng)

    def test_positions_at(self, field, rng):
        model = RandomWaypointModel(field, 4, (1.0, 2.0), 0.0, rng)
        assert len(model.positions_at(10.0)) == 4
