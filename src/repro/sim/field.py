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
from typing import Dict, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import check_positive, check_real

__all__ = ["RectangularField", "lens_overlap_fraction"]

Position = Tuple[float, float]


def _position_array(positions: Sequence[Position]) -> np.ndarray:
    """``positions`` as an ``(n, 2)`` float64 array of finite real
    coordinates, or :class:`ConfigurationError`.

    An array is checked by its dtype.  Other input is checked entry by
    entry, since numpy would read ``True`` as ``1`` and drop the
    imaginary part of a complex entry: a bool, complex or any other
    non-real entry raises.
    """
    if isinstance(positions, np.ndarray) and positions.dtype != object:
        pos = positions
    else:
        try:
            pos = np.array(positions, dtype=object)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"positions must be (x, y) pairs: {exc}"
            ) from None
    if pos.shape == (0,):
        return np.empty((0, 2), dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ConfigurationError(
            f"positions must have shape (n, 2), got {pos.shape}"
        )
    if pos.dtype == object:
        for value in pos.flat:
            check_real("positions", value)
    elif pos.dtype.kind not in "iuf":
        raise ConfigurationError(
            f"positions must be real numbers, got {pos.dtype}"
        )
    pos = pos.astype(np.float64, copy=False)
    if not np.isfinite(pos).all():
        raise ConfigurationError("positions must be finite")
    return pos


def _in_range_keys(
    z: np.ndarray,
    order: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    radius: float,
) -> np.ndarray:
    """Keys ``low << 32 | high`` of the in-range node pairs between
    sorted position ``i`` and sorted positions ``lo[i]:hi[i]``, for
    every ``i``.

    ``z`` holds the sorted positions as ``x + iy``, so one complex
    gather per side fetches both coordinates and the real and imaginary
    parts of the difference are dx and dy, bit for bit; ``order`` maps
    a sorted position to its node.  A squared-distance screen with 1e-9
    slack drops far candidates; only those within 1e-9 of the range
    (relative, on the square) can fall on either side of it, and they
    are confirmed with ``np.hypot``.
    """
    length = np.maximum(hi - lo, 0)
    total = int(length.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    left = np.repeat(np.arange(z.size), length)
    right = np.arange(total) + np.repeat(
        lo - (np.cumsum(length) - length), length
    )
    d = np.take(z, left)
    d -= np.take(z, right)
    dx, dy = d.real, d.imag
    square = dx * dx
    square += dy * dy
    near = np.flatnonzero(square <= radius * radius * (1.0 + 1e-9))
    square = np.take(square, near)
    edge = np.flatnonzero(square > radius * radius * (1.0 - 1e-9))
    if edge.size:
        band = np.take(d, np.take(near, edge))
        far = edge[np.hypot(band.real, band.imag) > radius]
        near = np.delete(near, far)
    first = np.take(order, np.take(left, near))
    second = np.take(order, np.take(right, near))
    return (np.minimum(first, second) << 32) | np.maximum(first, second)


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
            check_real(name, value)
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

    def neighbor_pairs(self, positions: Sequence[Position]) -> np.ndarray:
        """All index pairs ``(i, j), i < j`` within transmission range.

        ``positions`` is an ``(n, 2)`` array or a sequence of ``(x, y)``
        pairs; anything that is not ``n`` finite real coordinate pairs
        (a complex or bool entry included) raises
        :class:`ConfigurationError`.  Returns a ``(k, 2)`` int64 array
        sorted by ``(i, j)``, the same array as the grid-bucketed test
        oracle :func:`repro.oracles.reference_neighbor_pairs`.

        An occupied-cell search over a grid of side ``tx_range``: nodes
        are sorted by cell, and each is paired with the later nodes of
        its own cell and every node of the four forward cells
        ``(0, +1)``, ``(+1, -1)``, ``(+1, 0)``, ``(+1, +1)``, which
        visits each in-range candidate pair of a 3 x 3 neighborhood
        exactly once.  Forward cells are found by ``searchsorted`` over
        the occupied cell keys only, so memory is O(n) however many
        empty cells the field holds.  A squared-distance screen with
        1e-9 slack drops far candidates, and those within 1e-9 of the
        range (relative, on the square) are confirmed with ``np.hypot``,
        the correctly-rounded double :meth:`distance` computes, so the
        boundary decision is :meth:`in_range`'s; the rest lie strictly
        inside the range.  The rows are sorted on the key
        ``low << 32 | high``, i.e. by ``(low, high)``.

        The candidates are screened one stencil column at a time (own
        cell, then each forward cell), each pass keeping only its
        in-range pair keys, and one sort of their concatenation gives
        the rows.  At Table I (2000 nodes, ~59k candidates, ~21.4k
        pairs) the call's transient peak is ~1 MB, under a 2 MB bound
        its tests pin.  The bound matters beyond memory: the C
        allocator returns a freed peak at the top of the heap to the
        kernel, so a peak higher than the rest of a run's is faulted
        back in, page by page, on every run.
        """
        pos = _position_array(positions)
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
        z = np.empty(n, dtype=np.complex128)
        z.real = pos[order, 0]
        z.imag = pos[order, 1]
        # One pass per stencil column: each node's candidates are the
        # sorted positions [lo, hi), the rest of its own cell first,
        # then each forward cell in turn.
        found = [
            _in_range_keys(
                z, order, np.arange(1, n + 1), stops[cell_of], radius
            )
        ]
        for offset in (1, stride - 1, stride, stride + 1):
            target = occupied + offset
            cell = np.minimum(
                np.searchsorted(occupied, target), occupied.size - 1
            )
            hit = occupied[cell] == target
            lo = np.where(hit, starts[cell], 0)[cell_of]
            hi = np.where(hit, stops[cell], 0)[cell_of]
            found.append(_in_range_keys(z, order, lo, hi, radius))
        pair_key = np.concatenate(found)
        found.clear()
        pair_key.sort()
        pairs = np.empty((pair_key.size, 2), dtype=np.int64)
        np.right_shift(pair_key, 32, out=pairs[:, 0])
        np.bitwise_and(pair_key, 0xFFFFFFFF, out=pairs[:, 1])
        return pairs

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
