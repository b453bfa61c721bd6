"""Unit tests for field geometry and neighbor queries."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.field import RectangularField, lens_overlap_fraction
from repro.sim.mobility import uniform_positions


class TestGeometry:
    def test_lens_fraction_value(self):
        assert lens_overlap_fraction() == pytest.approx(
            1.0 - 3.0 * math.sqrt(3.0) / (4.0 * math.pi)
        )

    def test_distance(self):
        assert RectangularField.distance((0, 0), (3, 4)) == pytest.approx(5)

    def test_contains(self):
        field = RectangularField(100, 50, 10)
        assert field.contains((0, 0))
        assert field.contains((100, 50))
        assert not field.contains((101, 0))

    def test_require_inside(self):
        field = RectangularField(100, 50, 10)
        with pytest.raises(ConfigurationError):
            field.require_inside((200, 0))

    def test_in_range_boundary_inclusive(self):
        field = RectangularField(100, 100, 10)
        assert field.in_range((0, 0), (10, 0))
        assert not field.in_range((0, 0), (10.01, 0))

    def test_area(self):
        assert RectangularField(100, 50, 10).area == 5000

    def test_expected_neighbors(self):
        field = RectangularField(5000, 5000, 300)
        g = field.expected_neighbors(2000)
        assert g == pytest.approx(1999 * math.pi * 300**2 / 25e6)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            RectangularField(0, 10, 5)

    @pytest.mark.parametrize(
        "dims",
        [
            (10, math.inf, 5),
            (math.inf, 10, 5),
            (10, 10, math.inf),
            (10, -math.inf, 5),
            (10, 10, math.nan),
        ],
    )
    def test_rejects_non_finite_dimensions(self, dims):
        with pytest.raises(ConfigurationError, match="must be"):
            RectangularField(*dims)

    @pytest.mark.parametrize(
        "dims",
        [
            ("100", 100, 10),
            (True, 100, 10),
            (100, np.True_, 10),
            (100, 100, 10j),
            (None, 100, 10),
        ],
    )
    def test_rejects_non_real_dimensions(self, dims):
        with pytest.raises(ConfigurationError, match="must be a real"):
            RectangularField(*dims)


class TestNeighborPairs:
    def test_matches_brute_force(self, rng):
        field = RectangularField(1000, 1000, 120)
        positions = uniform_positions(field, 150, rng)
        fast = set(map(tuple, field.neighbor_pairs(positions).tolist()))
        brute = {
            (i, j)
            for i in range(150)
            for j in range(i + 1, 150)
            if field.in_range(positions[i], positions[j])
        }
        assert fast == brute

    def test_empty(self):
        field = RectangularField(10, 10, 1)
        assert np.array_equal(
            field.neighbor_pairs([]), np.empty((0, 2), dtype=np.int64)
        )

    def test_adjacency_symmetric(self, rng):
        field = RectangularField(500, 500, 100)
        positions = uniform_positions(field, 60, rng)
        adjacency = field.adjacency(positions)
        for node, neighbors in adjacency.items():
            for peer in neighbors:
                assert node in adjacency[peer]

    def test_common_neighbors(self):
        field = RectangularField(100, 100, 30)
        positions = [(0, 0), (20, 0), (40, 0), (10, 50)]
        adjacency = field.adjacency(positions)
        # nodes 0 and 2 are 40 apart (not neighbors); node 1 is common.
        assert field.common_neighbors(adjacency, 0, 2) == {1}

    def test_empirical_degree_matches_expectation(self, rng):
        field = RectangularField(3000, 3000, 200)
        degrees = []
        for _ in range(5):
            positions = uniform_positions(field, 500, rng)
            pairs = field.neighbor_pairs(positions)
            degrees.append(2 * len(pairs) / 500)
        # Border effects push the empirical degree slightly below.
        expected = field.expected_neighbors(500)
        assert 0.7 * expected < np.mean(degrees) <= expected
