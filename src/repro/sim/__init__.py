"""Discrete-event network simulation substrate.

The authors evaluated JR-SND with a private C++ simulator; this package
is its Python equivalent: a generator-based discrete-event kernel
(:mod:`repro.sim.engine`), 2-D field geometry with neighbor queries
(:mod:`repro.sim.field`), node placement and mobility models
(:mod:`repro.sim.mobility`), and a code-addressed radio medium operating
at message granularity (:mod:`repro.sim.medium`).  Counts and latency
samples go to :mod:`repro.obs`: an event network's nodes record into
the network's own registry.
"""

from repro.sim.engine import Event, Process, Simulator, Timeout
from repro.sim.field import RectangularField, lens_overlap_fraction
from repro.sim.links import (
    DiskLinkModel,
    LinkModel,
    LogNormalShadowingModel,
)
from repro.sim.medium import RadioMedium, Transmission
from repro.sim.mobility import (
    RandomWaypointModel,
    StaticPlacement,
    uniform_positions,
)

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Timeout",
    "RectangularField",
    "lens_overlap_fraction",
    "StaticPlacement",
    "RandomWaypointModel",
    "uniform_positions",
    "LinkModel",
    "DiskLinkModel",
    "LogNormalShadowingModel",
    "RadioMedium",
    "Transmission",
]
