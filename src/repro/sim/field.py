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


def _position_array(positions: Sequence[Position]) -> np.ndarray:
    """``positions`` as an ``(n, 2)`` float64 array of finite
    coordinates, or :class:`ConfigurationError`."""
    try:
        pos = np.asarray(positions, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"positions must be (x, y) pairs: {exc}"
        ) from None
    if pos.shape == (0,):
        return pos.reshape(0, 2)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ConfigurationError(
            f"positions must have shape (n, 2), got {pos.shape}"
        )
    if not np.isfinite(pos).all():
        raise ConfigurationError("positions must be finite")
    return pos


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
        for name, value in (
            ("width", width), ("height", height), ("tx_range", tx_range)
        ):
            check_positive(name, value)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be finite, got {value!r}"
                )
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

        ``positions`` is an ``(n, 2)`` array or a sequence of ``(x, y)``
        pairs; anything that is not ``n`` finite coordinate pairs raises
        :class:`ConfigurationError`.  Returns a ``(k, 2)`` int64 array
        sorted by ``(i, j)``.  ``"vectorized"`` (default) is the
        occupied-cell search of :meth:`_neighbor_pairs_vectorized`;
        ``"reference"`` is the original grid-bucketed loop.  Both return
        the same array.
        """
        from repro.core.mndp import COMPUTE_BACKENDS

        if backend not in COMPUTE_BACKENDS:
            raise ConfigurationError(
                f"neighbor_pairs backend must be one of "
                f"{COMPUTE_BACKENDS}, got {backend!r}"
            )
        pos = _position_array(positions)
        if backend == "vectorized":
            return self._neighbor_pairs_vectorized(pos)
        pairs = self._neighbor_pairs_reference(pos.tolist())
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

    def _neighbor_pairs_vectorized(self, pos: np.ndarray) -> np.ndarray:
        """Occupied-cell search over the reference's grid.

        Nodes get the reference's cells (side ``tx_range``) and are
        sorted by cell.  Each node is paired with the later nodes of its
        own cell and every node of the four forward cells ``(0, +1)``,
        ``(+1, -1)``, ``(+1, 0)``, ``(+1, +1)``, which visits each
        in-range candidate pair of the reference's 3 x 3 neighborhood
        exactly once.  Forward cells are found by ``searchsorted`` over
        the occupied cell keys only, so memory is O(n) however many
        empty cells the field holds.  A squared-distance screen with
        1e-9 slack drops far candidates, and those within 1e-9 of the
        range (relative, on the square) are confirmed with ``np.hypot``,
        the correctly-rounded double the reference's ``math.hypot``
        computes, so the boundary decision is bit-identical; the rest
        lie strictly inside the range.  The rows are sorted on the key
        ``low << 32 | high``, i.e. by ``(low, high)``.
        """
        n = len(pos)
        if n < 2:
            return np.empty((0, 2), dtype=np.int64)
        radius = self._range
        # Cell coordinates, rank-compressed per axis with every gap
        # wider than one cell closed to exactly two: adjacency is kept,
        # and keys stay below (2n + 1)^2 whatever the coordinates.
        ranks = []
        for axis in (0, 1):
            cells, inverse = np.unique(
                np.floor_divide(pos[:, axis], radius), return_inverse=True
            )
            step = np.where(np.diff(cells) == 1.0, 1, 2)
            ranks.append(np.concatenate(([1], 1 + np.cumsum(step)))[inverse])
        stride = int(ranks[1].max()) + 2
        key = ranks[0] * stride + ranks[1]
        order = np.argsort(key, kind="stable")
        key = key[order]
        bounds = np.flatnonzero(key[1:] != key[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        stops = np.concatenate((bounds, [n]))
        occupied = key[starts]
        cell_of = np.repeat(np.arange(starts.size), stops - starts)
        # Candidate ranges [lo, hi) of sorted positions, one row per
        # node: the rest of its own cell, then each forward cell.
        lo = np.empty((n, 5), dtype=np.int64)
        hi = np.empty((n, 5), dtype=np.int64)
        lo[:, 0] = np.arange(1, n + 1)
        hi[:, 0] = stops[cell_of]
        for column, offset in enumerate((1, stride - 1, stride, stride + 1)):
            target = occupied + offset
            found = np.minimum(
                np.searchsorted(occupied, target), occupied.size - 1
            )
            hit = occupied[found] == target
            lo[:, column + 1] = np.where(hit, starts[found], 0)[cell_of]
            hi[:, column + 1] = np.where(hit, stops[found], 0)[cell_of]
        lo = lo.ravel()
        length = np.maximum(hi.ravel() - lo, 0)
        offsets = np.cumsum(length) - length
        left = np.repeat(np.arange(n).repeat(5), length)
        right = np.arange(int(offsets[-1] + length[-1])) + np.repeat(
            lo - offsets, length
        )
        # One complex gather per side fetches both coordinates; the
        # real and imaginary parts of the difference are the reference's
        # dx and dy, bit for bit.
        z = np.empty(n, dtype=np.complex128)
        z.real = pos[order, 0]
        z.imag = pos[order, 1]
        d = np.take(z, left)
        d -= np.take(z, right)
        dx, dy = d.real, d.imag
        square = dx * dx
        square += dy * dy
        near = np.flatnonzero(square <= radius * radius * (1.0 + 1e-9))
        # Only a candidate inside the +-1e-9 band can fall on either
        # side of the range; below it every one is in range.
        square = np.take(square, near)
        edge = np.flatnonzero(square > radius * radius * (1.0 - 1e-9))
        if edge.size:
            band = np.take(d, np.take(near, edge))
            far = edge[np.hypot(band.real, band.imag) > radius]
            near = np.delete(near, far)
        first = np.take(order, np.take(left, near))
        second = np.take(order, np.take(right, near))
        pair_key = np.sort(
            (np.minimum(first, second) << 32) | np.maximum(first, second)
        )
        return np.stack((pair_key >> 32, pair_key & 0xFFFFFFFF), axis=1)

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
