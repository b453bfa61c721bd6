"""Small statistics helpers for experiment reporting.

The paper averages every measurement over 100 independently seeded
runs; :func:`mean_confidence_interval` quantifies how tight such an
average is (Student-t), and :func:`wilson_interval` bounds a success
probability estimated from Bernoulli counts — used by the experiment
result objects and the reporting tables.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.errors import ConfigurationError
from repro.utils.validation import check_fraction, check_non_negative

__all__ = ["mean_confidence_interval", "wilson_interval"]


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """``(mean, low, high)`` Student-t confidence interval.

    A single sample yields a degenerate interval at the point estimate.
    """
    from scipy import stats as scipy_stats

    check_fraction("confidence", confidence)
    values = [float(v) for v in samples]
    if not values:
        raise ConfigurationError("no samples")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, mean, mean
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half_width = (
        scipy_stats.t.ppf((1 + confidence) / 2, n - 1)
        * math.sqrt(variance / n)
    )
    return mean, mean - half_width, mean + half_width


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float, float]:
    """``(estimate, low, high)`` Wilson score interval for a proportion.

    Better behaved than the normal approximation near 0 and 1, which is
    where discovery probabilities live.
    """
    check_non_negative("successes", successes)
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if successes > trials:
        raise ConfigurationError(
            f"successes ({successes}) exceed trials ({trials})"
        )
    from scipy import stats as scipy_stats

    check_fraction("confidence", confidence)
    z = float(scipy_stats.norm.ppf((1 + confidence) / 2))
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
        / denom
    )
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return p, low, high
