"""Reference vs vectorized neighbor-pair search equivalence."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.field import RectangularField


def _assert_backends_agree(field, positions):
    want = field.neighbor_pairs(positions, backend="reference")
    got = field.neighbor_pairs(positions, backend="vectorized")
    assert got.dtype == np.int64 and got.shape[1:] == (2,)
    assert np.array_equal(want, got)
    return got


class TestNeighborPairBackends:
    def test_identical_pairs_random_fields(self):
        rng = np.random.default_rng(11)
        for trial in range(15):
            width = float(rng.uniform(50, 1500))
            height = float(rng.uniform(50, 1500))
            tx_range = float(rng.uniform(10, max(width, height)))
            field = RectangularField(width, height, tx_range)
            n = int(rng.integers(0, 250))
            positions = [
                (float(x), float(y))
                for x, y in zip(
                    rng.uniform(0, width, n), rng.uniform(0, height, n)
                )
            ]
            want = field.neighbor_pairs(positions, backend="reference")
            got = field.neighbor_pairs(positions, backend="vectorized")
            assert np.array_equal(want, got)

    def test_boundary_distance_agrees(self):
        # Two nodes exactly tx_range apart: both backends use the same
        # correctly-rounded hypot, so the boundary decision matches.
        field = RectangularField(100.0, 100.0, 5.0)
        positions = [(0.0, 0.0), (3.0, 4.0), (0.0, 5.0), (0.0, 5.0001)]
        want = field.neighbor_pairs(positions, backend="reference")
        got = field.neighbor_pairs(positions, backend="vectorized")
        assert np.array_equal(want, got)
        found = got.tolist()
        assert [0, 1] in found and [0, 2] in found and [0, 3] not in found

    @pytest.mark.parametrize("tx_range", [300.0, 7.5, 0.3])
    def test_points_around_the_range_agree(self, tx_range):
        # Only candidates within 1e-9 of the range (on the squared
        # distance) are confirmed with hypot: points at r and r(1 +-
        # 1e-12) fall in that band, r(1 +- 2e-9) just outside it.
        field = RectangularField(10 * tx_range, 10 * tx_range, tx_range)
        center = np.array([5 * tx_range, 5 * tx_range])
        factors = (1.0, 1 - 1e-12, 1 + 1e-12, 1 - 2e-9, 1 + 2e-9)
        angles = np.linspace(0.0, 2 * np.pi, 13)[:-1]
        positions = [center]
        for factor in factors:
            for angle in angles:
                offset = np.array([np.cos(angle), np.sin(angle)])
                positions.append(center + tx_range * factor * offset)
        pairs = _assert_backends_agree(field, np.array(positions))
        with_center = {b for a, b in pairs.tolist() if a == 0}
        inside = range(1 + 3 * angles.size, 1 + 4 * angles.size)
        outside = range(1 + 4 * angles.size, 1 + 5 * angles.size)
        assert set(inside) <= with_center
        assert not set(outside) & with_center

    def test_returns_sorted_int64_array(self):
        field = RectangularField(10.0, 10.0, 20.0)
        positions = [(2.0, 2.0), (0.0, 0.0), (1.0, 1.0), (3.0, 0.5)]
        for backend in ("reference", "vectorized"):
            pairs = field.neighbor_pairs(positions, backend=backend)
            assert pairs.dtype == np.int64 and pairs.shape == (6, 2)
            assert pairs.tolist() == [
                [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]
            ]

    def test_small_inputs(self):
        field = RectangularField(10.0, 10.0, 5.0)
        for backend in ("reference", "vectorized"):
            for positions in ([], [(1.0, 1.0)]):
                pairs = field.neighbor_pairs(positions, backend=backend)
                assert pairs.dtype == np.int64 and pairs.shape == (0, 2)

    def test_unknown_backend_rejected(self):
        field = RectangularField(10.0, 10.0, 5.0)
        with pytest.raises(ConfigurationError):
            field.neighbor_pairs([(0.0, 0.0)], backend="kdtree")

    def test_coordinates_on_cell_edges(self):
        # Every coordinate an exact multiple of tx_range: nodes sit on
        # cell corners, and lattice neighbors are exactly tx_range
        # apart.
        for tx_range in (1.0, 0.3, 7.5, 300.0):
            field = RectangularField(10 * tx_range, 10 * tx_range, tx_range)
            grid = np.arange(0, 11) * tx_range
            xs, ys = np.meshgrid(grid, grid)
            positions = np.stack((xs.ravel(), ys.ravel()), axis=1)
            pairs = _assert_backends_agree(field, positions)
            if tx_range in (1.0, 7.5, 300.0):
                # Exact products: the 4-neighbor lattice links are in
                # range, diagonals (sqrt 2 apart) are not.
                assert len(pairs) == 2 * 11 * 10

    def test_negative_and_outside_field_coordinates(self):
        rng = np.random.default_rng(5)
        field = RectangularField(100.0, 80.0, 12.0)
        positions = np.stack(
            (rng.uniform(-150, 250, 300), rng.uniform(-90, 170, 300)),
            axis=1,
        )
        pairs = _assert_backends_agree(field, positions)
        assert len(pairs) > 0

    def test_colocated_duplicates(self):
        rng = np.random.default_rng(6)
        field = RectangularField(50.0, 50.0, 4.0)
        spots = rng.uniform(0, 50, (20, 2))
        positions = spots[rng.integers(0, 20, 200)]
        pairs = _assert_backends_agree(field, positions)
        # Every node shares its spot with the others drawn onto it.
        _, counts = np.unique(positions, axis=0, return_counts=True)
        assert len(pairs) >= int((counts * (counts - 1) // 2).sum())

    @pytest.mark.parametrize("scale", [1.0, 1.5, 40.0])
    def test_range_at_least_field_size(self, scale):
        rng = np.random.default_rng(7)
        field = RectangularField(30.0, 20.0, 30.0 * scale)
        positions = rng.uniform(0, 20, (80, 2))
        pairs = _assert_backends_agree(field, positions)
        if scale > 1.3:
            assert len(pairs) == 80 * 79 // 2

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_placements(self, n):
        field = RectangularField(10.0, 10.0, 5.0)
        for positions in ([(1.0, 1.0), (4.0, 5.0)][:n], np.ones((n, 2))):
            pairs = _assert_backends_agree(field, positions)
            assert pairs.shape == ((1, 2) if n == 2 else (0, 2))

    def test_huge_sparse_field_memory_is_linear(self):
        # A 1e9 m field with a 1 m range has 1e18 cells; 1000 nodes in
        # 10 tight clusters occupy a few dozen of them.  Nothing may be
        # sized by the field.
        rng = np.random.default_rng(8)
        field = RectangularField(1e9, 1e9, 1.0)
        centers = rng.uniform(0, 1e9, (10, 2))
        positions = centers.repeat(100, axis=0) + rng.uniform(
            -2, 2, (1000, 2)
        )
        tracemalloc.start()
        try:
            got = field.neighbor_pairs(positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        want = field.neighbor_pairs(positions, backend="reference")
        assert np.array_equal(got, want)
        assert len(got) > 1000


class TestPositionValidation:
    BAD = {
        "nan": [(0.0, 0.0), (math.nan, 1.0)],
        "inf": [(0.0, 0.0), (1.0, math.inf)],
        "one column": np.zeros((3, 1)),
        "three columns": np.zeros((3, 3)),
        "flat": [0.0, 1.0, 2.0, 3.0],
        "ragged": [(0.0, 0.0), (1.0,)],
        "text": [("a", "b")],
    }

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_positions_rejected(self, backend, case):
        field = RectangularField(10.0, 10.0, 5.0)
        with pytest.raises(ConfigurationError):
            field.neighbor_pairs(self.BAD[case], backend=backend)

    def test_integer_positions_accepted(self):
        field = RectangularField(10.0, 10.0, 5.0)
        pairs = _assert_backends_agree(field, [(0, 0), (3, 4), (9, 9)])
        assert pairs.tolist() == [[0, 1]]
