"""2-D field geometry and neighbor queries.

The paper's evaluation places 2000 nodes uniformly in a 5000 x 5000 m
field with a 300 m transmission range.  :class:`RectangularField` answers
range queries with a uniform grid (cell size = range), making the
physical-neighbor graph of a 2000-node snapshot cheap to build.

:func:`lens_overlap_fraction` is the geometric constant of Theorem 3:
two circles of radius ``a`` whose centers are at most ``a`` apart overlap
in expectation over the distance by ``(pi - 3*sqrt(3)/4) a^2``, i.e. a
fraction ``1 - 3*sqrt(3) / (4 pi)`` of one disc's area.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive

__all__ = ["RectangularField", "lens_overlap_fraction"]

Position = Tuple[float, float]


def lens_overlap_fraction() -> float:
    """Expected overlap fraction ``1 - 3*sqrt(3)/(4*pi)`` of Theorem 3."""
    return 1.0 - 3.0 * math.sqrt(3.0) / (4.0 * math.pi)


class RectangularField:
    """A ``width x height`` field with a fixed transmission range.

    Parameters
    ----------
    width, height:
        Field dimensions in meters.
    tx_range:
        Radio range ``a``; two nodes are physical neighbors iff their
        distance is at most ``tx_range``.
    """

    def __init__(self, width: float, height: float, tx_range: float) -> None:
        check_positive("width", width)
        check_positive("height", height)
        check_positive("tx_range", tx_range)
        self._width = float(width)
        self._height = float(height)
        self._range = float(tx_range)

    @property
    def width(self) -> float:
        """Field width in meters."""
        return self._width

    @property
    def height(self) -> float:
        """Field height in meters."""
        return self._height

    @property
    def tx_range(self) -> float:
        """Transmission range in meters."""
        return self._range

    @property
    def area(self) -> float:
        """Field area in square meters."""
        return self._width * self._height

    def contains(self, position: Position) -> bool:
        """Whether a position lies inside the field."""
        x, y = position
        return 0 <= x <= self._width and 0 <= y <= self._height

    def require_inside(self, position: Position) -> Position:
        """Validate a position; return it."""
        if not self.contains(position):
            raise ConfigurationError(
                f"position {position} outside {self._width}x{self._height} "
                "field"
            )
        return position

    @staticmethod
    def distance(a: Position, b: Position) -> float:
        """Euclidean distance."""
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def in_range(self, a: Position, b: Position) -> bool:
        """Physical-neighbor test."""
        return self.distance(a, b) <= self._range

    def expected_neighbors(self, n_nodes: int) -> float:
        """Mean physical degree ``g`` for uniform placement (ignoring
        border effects): ``(n - 1) * pi a^2 / area``."""
        check_positive("n_nodes", n_nodes)
        return (n_nodes - 1) * math.pi * self._range**2 / self.area

    def neighbor_pairs(
        self, positions: Sequence[Position], backend: str = "vectorized"
    ) -> np.ndarray:
        """All index pairs ``(i, j), i < j`` within transmission range.

        Returns a ``(k, 2)`` int64 array sorted by ``(i, j)``.
        ``"vectorized"`` (default) screens chunked squared distances and
        confirms the boundary with the same correctly-rounded hypot the
        reference uses; ``"reference"`` is the original grid-bucketed
        loop.  Both return the same array.
        """
        from repro.core.mndp import COMPUTE_BACKENDS

        if backend not in COMPUTE_BACKENDS:
            raise ConfigurationError(
                f"neighbor_pairs backend must be one of "
                f"{COMPUTE_BACKENDS}, got {backend!r}"
            )
        if backend == "vectorized":
            return self._neighbor_pairs_vectorized(positions)
        pairs = self._neighbor_pairs_reference(positions)
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)

    def _neighbor_pairs_reference(
        self, positions: Sequence[Position]
    ) -> List[Tuple[int, int]]:
        """Grid-bucketed: O(n) expected for uniform placements."""
        cell = self._range
        buckets: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for index, position in enumerate(positions):
            key = (int(position[0] // cell), int(position[1] // cell))
            buckets[key].append(index)
        pairs: List[Tuple[int, int]] = []
        for (cx, cy), members in buckets.items():
            candidates: List[int] = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    candidates.extend(buckets.get((cx + dx, cy + dy), ()))
            for i in members:
                for j in candidates:
                    if j > i and self.in_range(positions[i], positions[j]):
                        pairs.append((i, j))
        return sorted(set(pairs))

    def _neighbor_pairs_vectorized(
        self, positions: Sequence[Position]
    ) -> np.ndarray:
        """Strip-bucketed squared-distance sweep.

        Nodes are bucketed into vertical strips of width ``tx_range``
        (any in-range pair sits in the same or adjacent strips, like the
        reference's grid cells) and each strip is swept against itself
        and its right neighbor with one dense squared-distance screen.
        Survivors are confirmed with ``np.hypot``, the correctly-rounded
        double the reference's ``math.hypot`` computes, so the boundary
        decision is bit-identical.  Each pair is found once; the result
        is sorted on the key ``low * n + high``.
        """
        n = len(positions)
        if n < 2:
            return np.empty((0, 2), dtype=np.int64)
        pos = np.asarray(positions, dtype=np.float64)
        x = pos[:, 0]
        y = pos[:, 1]
        radius = self._range
        screen = radius * radius * (1.0 + 1e-9)
        strip_of = np.floor_divide(x, radius).astype(np.int64)
        order = np.argsort(strip_of, kind="stable")
        strips, starts = np.unique(strip_of[order], return_index=True)
        strips = strips.tolist()
        bounds = starts.tolist() + [n]
        keys: List[np.ndarray] = []

        def confirm(low: np.ndarray, high: np.ndarray) -> None:
            exact = np.hypot(x[low] - x[high], y[low] - y[high])
            keep = exact <= radius
            keys.append(low[keep] * n + high[keep])

        for t in range(len(strips)):
            a_idx = order[bounds[t] : bounds[t + 1]]
            xa = x[a_idx]
            ya = y[a_idx]
            dx = xa[:, None] - xa[None, :]
            dy = ya[:, None] - ya[None, :]
            rows, cols = np.nonzero(dx * dx + dy * dy <= screen)
            low, high = a_idx[rows], a_idx[cols]
            inside = high > low
            confirm(low[inside], high[inside])
            if t + 1 < len(strips) and strips[t + 1] == strips[t] + 1:
                b_idx = order[bounds[t + 1] : bounds[t + 2]]
                dx = xa[:, None] - x[b_idx][None, :]
                dy = ya[:, None] - y[b_idx][None, :]
                rows, cols = np.nonzero(dx * dx + dy * dy <= screen)
                left, right = a_idx[rows], b_idx[cols]
                confirm(
                    np.minimum(left, right), np.maximum(left, right)
                )
        key = np.sort(np.concatenate(keys))
        return np.stack((key // n, key % n), axis=1)

    def adjacency(
        self, positions: Sequence[Position]
    ) -> Dict[int, Set[int]]:
        """Physical-neighbor sets keyed by node index."""
        neighbors: Dict[int, Set[int]] = {
            i: set() for i in range(len(positions))
        }
        for i, j in self.neighbor_pairs(positions).tolist():
            neighbors[i].add(j)
            neighbors[j].add(i)
        return neighbors

    def common_neighbors(
        self, adjacency: Dict[int, Set[int]], a: int, b: int
    ) -> Set[int]:
        """Nodes adjacent to both ``a`` and ``b`` (excluding the pair)."""
        return (adjacency[a] & adjacency[b]) - {a, b}
