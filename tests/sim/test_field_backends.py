"""The neighbor-pair search against its grid-bucketed oracle.

``"vectorized"`` is :meth:`RectangularField.neighbor_pairs`,
``"reference"`` the per-cell loop of
:func:`repro.oracles.reference_neighbor_pairs`.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.oracles import reference_neighbor_pairs
from repro.sim.field import RectangularField
from repro.sim.mobility import uniform_positions

#: ``neighbor_pairs(field, positions)`` of each implementation.
NEIGHBOR_PAIRS = {
    "reference": reference_neighbor_pairs,
    "vectorized": RectangularField.neighbor_pairs,
}


def _assert_backends_agree(field, positions):
    want = reference_neighbor_pairs(field, positions)
    got = field.neighbor_pairs(positions)
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
            assert np.array_equal(
                reference_neighbor_pairs(field, positions),
                field.neighbor_pairs(positions),
            )

    def test_boundary_distance_agrees(self):
        # Two nodes exactly tx_range apart: both searches use the same
        # correctly-rounded hypot, so the boundary decision matches.
        field = RectangularField(100.0, 100.0, 5.0)
        positions = [(0.0, 0.0), (3.0, 4.0), (0.0, 5.0), (0.0, 5.0001)]
        found = _assert_backends_agree(field, positions).tolist()
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
        for neighbor_pairs in NEIGHBOR_PAIRS.values():
            pairs = neighbor_pairs(field, positions)
            assert pairs.dtype == np.int64 and pairs.shape == (6, 2)
            assert pairs.tolist() == [
                [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]
            ]

    def test_small_inputs(self):
        field = RectangularField(10.0, 10.0, 5.0)
        for neighbor_pairs in NEIGHBOR_PAIRS.values():
            for positions in ([], [(1.0, 1.0)]):
                pairs = neighbor_pairs(field, positions)
                assert pairs.dtype == np.int64 and pairs.shape == (0, 2)

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
        want = reference_neighbor_pairs(field, positions)
        assert np.array_equal(got, want)
        assert len(got) > 1000


class TestPerColumnPasses:
    """Cases aimed at the one-stencil-column-at-a-time screen."""

    @pytest.mark.parametrize("strip", ["row", "column", "rising", "falling"])
    def test_forward_columns_without_candidates(self, strip):
        # Nodes along one row of cells have no (0, +1), (+1, -1) or
        # (+1, +1) candidates; along one column, only (0, +1) ones;
        # along a diagonal, only the diagonal forward cell's.
        rng = np.random.default_rng(12)
        field = RectangularField(1000.0, 1000.0, 10.0)
        t = rng.uniform(0.0, 1000.0, 400)
        jitter = rng.uniform(0.0, 9.9, 400)
        positions = {
            "row": np.stack((t, jitter), axis=1),
            "column": np.stack((jitter, t), axis=1),
            "rising": np.stack((t, t), axis=1),
            "falling": np.stack((t, 1000.0 - t), axis=1),
        }[strip]
        assert len(_assert_backends_agree(field, positions)) > 0

    def test_every_node_in_one_cell(self):
        rng = np.random.default_rng(13)
        field = RectangularField(100.0, 100.0, 50.0)
        positions = rng.uniform(0.0, 49.9, (300, 2))
        pairs = _assert_backends_agree(field, positions)
        assert 0 < len(pairs) < 300 * 299 // 2

    @pytest.mark.parametrize(
        "start, step",
        [
            ((2.0, 2.0), (0.0, 5.0)),  # (0, +1)
            ((4.0, 6.0), (3.0, -4.0)),  # (+1, -1)
            ((2.0, 2.0), (5.0, 0.0)),  # (+1, 0)
            ((4.0, 4.0), (3.0, 4.0)),  # (+1, +1)
        ],
        ids=["0,+1", "+1,-1", "+1,0", "+1,+1"],
    )
    def test_pairs_exactly_at_range_in_each_forward_cell(self, start, step):
        # A and B are exactly tx_range = 5 apart with B in the forward
        # cell; C is one ulp further out along the same direction.
        field = RectangularField(20.0, 20.0, 5.0)
        a = np.array(start)
        b = a + np.array(step)
        c = np.nextafter(b, b + np.array(step))
        assert field.distance(a, b) == 5.0 and field.distance(a, c) > 5.0
        pairs = _assert_backends_agree(field, np.stack((a, b, c)))
        assert pairs.tolist() == [[0, 1], [1, 2]]

    def test_table1_transient_peak_stays_under_2_mb(self):
        # A transient peak above the rest of a run's is handed back to
        # the kernel after the call and faulted in again on the next
        # run; screening one column at a time keeps it near 1 MB.
        field = RectangularField(5000.0, 5000.0, 300.0)
        positions = uniform_positions(
            field, 2000, np.random.default_rng(2011)
        )
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            pairs = field.neighbor_pairs(positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 20_000 < len(pairs) < 23_000
        assert peak - base <= 2 * 2**20


class TestPositionValidation:
    BAD = {
        "nan": [(0.0, 0.0), (math.nan, 1.0)],
        "inf": [(0.0, 0.0), (1.0, math.inf)],
        "one column": np.zeros((3, 1)),
        "three columns": np.zeros((3, 3)),
        "flat": [0.0, 1.0, 2.0, 3.0],
        "ragged": [(0.0, 0.0), (1.0,)],
        "text": [("a", "b")],
        "complex": [(0.0, 0.0), (1.0 + 2.0j, 1.0)],
        "complex array": np.array([[0.0, 0.0], [1.0, 2.0j]]),
        "bool": [(True, False), (False, True)],
        "bool entry": [(0.0, 0.0), (True, 1.0)],
        "bool array": np.array([[True, False], [False, True]]),
    }

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_positions_rejected(self, backend, case):
        field = RectangularField(10.0, 10.0, 5.0)
        # Raised, not read with a ComplexWarning or as 0/1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError):
                NEIGHBOR_PAIRS[backend](field, self.BAD[case])

    def test_integer_positions_accepted(self):
        field = RectangularField(10.0, 10.0, 5.0)
        pairs = _assert_backends_agree(field, [(0, 0), (3, 4), (9, 9)])
        assert pairs.tolist() == [[0, 1]]
