"""Transmission-range geometry behind Theorem 3.

Theorem 3 needs the expected number of *common* physical neighbors of
two nodes that are themselves physical neighbors.  With transmission
radius ``a`` and the pair's distance ``d`` uniform over the disc
(density ``2d/a²`` on ``[0, a]``), the expected intersection area of
their two range discs is

``E[A] = (π − 3√3/4) a²``  —  a fraction ``1 − 3√3/(4π) ≈ 0.5865``
of one disc.

This module provides the exact two-circle lens area, the expectation
(by quadrature, validated against the closed form in the tests), and
the common-neighbor count estimate the theorem uses.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.sim.field import lens_overlap_fraction
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "lens_area",
    "expected_overlap_area",
    "expected_common_neighbors",
]


def lens_area(distance: float, radius: float) -> float:
    """Intersection area of two discs of ``radius`` at ``distance``.

    The classical lens formula:
    ``2 r² cos⁻¹(d / 2r) − (d/2) √(4r² − d²)``.

    >>> lens_area(0.0, 1.0) == math.pi
    True
    """
    check_positive("radius", radius)
    check_non_negative("distance", distance)
    if distance >= 2.0 * radius:
        return 0.0
    half = distance / 2.0
    return (
        2.0 * radius**2 * math.acos(half / radius)
        - half * math.sqrt(4.0 * radius**2 - distance**2)
    )


def expected_overlap_area(radius: float) -> float:
    """``E[lens_area(D, a)]`` for ``D`` uniform over the disc.

    Integrates the lens area against the distance density ``2d/a²``;
    equals ``(π − 3√3/4) a²`` (ref. [11] of the paper), which the tests
    verify to quadrature precision.
    """
    from scipy import integrate

    check_positive("radius", radius)
    value, _ = integrate.quad(
        lambda d: lens_area(d, radius) * 2.0 * d / radius**2,
        0.0,
        radius,
    )
    return float(value)


def expected_common_neighbors(
    degree: float, include_endpoints: bool = False
) -> float:
    """Theorem 3's common-neighbor count ``g (1 − 3√3/(4π)) − 1``.

    ``degree`` is the mean physical degree ``g``; the default excludes
    the endpoints themselves, as the theorem does.  Clamped at 0 for
    very sparse networks.
    """
    if degree <= 0:
        raise ConfigurationError(f"degree must be positive, got {degree}")
    count = degree * lens_overlap_fraction()
    if not include_endpoints:
        count -= 1.0
    return max(count, 0.0)
