"""Node placement and mobility models.

The figure experiments use independent uniform snapshots (each Monte
Carlo run re-places all nodes, which is what "each with a different
random seed" amounts to for a connectivity metric).  The random-waypoint
model supports the event-driven simulations and the high-mobility
examples: each node repeatedly picks a uniform destination and speed and
travels in a straight line, with optional pause times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.field import Position, RectangularField
from repro.utils.validation import (
    check_count,
    check_non_negative,
    check_positive,
)

__all__ = ["uniform_positions", "StaticPlacement", "RandomWaypointModel"]


def uniform_positions(
    field: RectangularField, n_nodes: int, rng: np.random.Generator
) -> np.ndarray:
    """Place ``n_nodes`` uniformly at random in the field.

    Returns an ``(n_nodes, 2)`` float64 array of ``(x, y)`` rows: all
    x draws first, then all y draws.  ``n_nodes`` must be a positive
    integer (not a bool); anything else is a
    :class:`ConfigurationError`.
    """
    check_count("n_nodes", n_nodes, "node count")
    check_positive("n_nodes", n_nodes)
    xs = rng.uniform(0.0, field.width, size=n_nodes)
    ys = rng.uniform(0.0, field.height, size=n_nodes)
    return np.stack((xs, ys), axis=1)


def _as_tuples(positions: Sequence[Position]) -> List[Position]:
    """Positions as a list of ``(x, y)`` float tuples."""
    return [
        (x, y) for x, y in np.asarray(positions, dtype=np.float64).tolist()
    ]


class StaticPlacement:
    """A time-invariant placement (one snapshot)."""

    def __init__(self, positions: Sequence[Position]) -> None:
        if len(positions) == 0:
            raise ConfigurationError("placement must contain nodes")
        self._positions = _as_tuples(positions)

    @classmethod
    def uniform(
        cls,
        field: RectangularField,
        n_nodes: int,
        rng: np.random.Generator,
    ) -> "StaticPlacement":
        """Uniform random snapshot."""
        return cls(uniform_positions(field, n_nodes, rng))

    @property
    def n_nodes(self) -> int:
        """Number of placed nodes."""
        return len(self._positions)

    def position(self, node: int, time: float = 0.0) -> Position:
        """Position of ``node`` (time-independent)."""
        return self._positions[node]

    def positions_at(self, time: float = 0.0) -> List[Position]:
        """All positions (time-independent)."""
        return list(self._positions)


@dataclass
class _Leg:
    """One straight-line movement leg of a waypoint trajectory."""

    start_time: float
    start: Position
    end: Position
    speed: float

    @property
    def travel_time(self) -> float:
        distance = RectangularField.distance(self.start, self.end)
        return distance / self.speed if self.speed > 0 else 0.0

    @property
    def end_time(self) -> float:
        return self.start_time + self.travel_time

    def position_at(self, time: float) -> Position:
        if self.travel_time <= 0:
            return self.end
        fraction = min(max((time - self.start_time) / self.travel_time, 0), 1)
        if fraction >= 1.0:
            return self.end  # exact endpoint, no float interpolation drift
        if fraction <= 0.0:
            return self.start
        return (
            self.start[0] + fraction * (self.end[0] - self.start[0]),
            self.start[1] + fraction * (self.end[1] - self.start[1]),
        )


class RandomWaypointModel:
    """Random-waypoint mobility with lazily extended trajectories.

    Parameters
    ----------
    field:
        The playing field.
    n_nodes:
        Number of mobile nodes.
    speed_range:
        ``(min, max)`` speeds in m/s, drawn uniformly per leg.
    pause_time:
        Pause at each waypoint in seconds.
    rng:
        Dedicated random stream.
    """

    def __init__(
        self,
        field: RectangularField,
        n_nodes: int,
        speed_range: Tuple[float, float],
        pause_time: float,
        rng: np.random.Generator,
    ) -> None:
        check_positive("n_nodes", n_nodes)
        low, high = speed_range
        check_positive("min speed", low)
        if high < low:
            raise ConfigurationError(
                f"speed_range must be (min <= max), got {speed_range}"
            )
        check_non_negative("pause_time", pause_time)
        self._field = field
        self._rng = rng
        self._pause = float(pause_time)
        self._speed_range = (float(low), float(high))
        starts = _as_tuples(uniform_positions(field, n_nodes, rng))
        self._legs: List[List[_Leg]] = [
            [self._new_leg(0.0, start)] for start in starts
        ]

    @property
    def n_nodes(self) -> int:
        """Number of mobile nodes."""
        return len(self._legs)

    def _new_leg(self, start_time: float, start: Position) -> _Leg:
        (destination,) = _as_tuples(
            uniform_positions(self._field, 1, self._rng)
        )
        speed = float(self._rng.uniform(*self._speed_range))
        return _Leg(start_time, start, destination, speed)

    def position(self, node: int, time: float) -> Position:
        """Position of ``node`` at ``time`` (extends trajectory lazily)."""
        if time < 0:
            raise ConfigurationError(f"time must be >= 0, got {time}")
        legs = self._legs[node]
        while legs[-1].end_time + self._pause < time:
            last = legs[-1]
            legs.append(
                self._new_leg(last.end_time + self._pause, last.end)
            )
        for leg in reversed(legs):
            if time >= leg.start_time:
                return leg.position_at(time)
        return legs[0].start

    def positions_at(self, time: float) -> List[Position]:
        """All node positions at ``time``."""
        return [self.position(node, time) for node in range(self.n_nodes)]
