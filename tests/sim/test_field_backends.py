"""Reference vs vectorized neighbor-pair search equivalence."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.field import RectangularField


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
