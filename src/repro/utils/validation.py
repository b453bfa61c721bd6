"""Small argument-validation helpers.

These raise :class:`repro.errors.ConfigurationError` with a uniform message
format, keeping the validation noise in constructors short and consistent.
"""

from __future__ import annotations

import numbers
from typing import Any, Iterable, Tuple, Type, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_in_range",
    "check_type",
    "check_real",
    "check_node_count",
    "check_integer_array",
]

Number = Union[int, float]


def check_positive(name: str, value: Number) -> Number:
    """Require ``value > 0``; return it."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: Number) -> Number:
    """Require ``value >= 0``; return it."""
    if not value >= 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(name: str, value: Number) -> Number:
    """Require ``0 <= value <= 1``; return it."""
    if not 0 <= value <= 1:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in_range(
    name: str, value: Number, low: Number, high: Number
) -> Number:
    """Require ``low <= value <= high``; return it."""
    if not low <= value <= high:
        raise ConfigurationError(
            f"{name} must be in [{low}, {high}], got {value!r}"
        )
    return value


def check_type(
    name: str, value: Any, types: Union[Type, Tuple[Type, ...]]
) -> Any:
    """Require ``isinstance(value, types)``; return the value."""
    if not isinstance(value, types):
        if isinstance(types, tuple):
            expected = " or ".join(t.__name__ for t in types)
        else:
            expected = types.__name__
        raise ConfigurationError(
            f"{name} must be {expected}, got {type(value).__name__}"
        )
    return value


def check_real(name: str, value: Any) -> Number:
    """Require a real number; return it.  A bool is refused: numpy and
    arithmetic would silently read it as 0 or 1."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, numbers.Real
    ):
        raise ConfigurationError(
            f"{name} must be a real number, got {value!r}"
        )
    return value


def check_node_count(name: str, value: Any) -> int:
    """Require an integer (not a bool) count; return it.  Its sign is
    the caller's to check."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, np.integer)
    ):
        raise ConfigurationError(
            f"{name} must be an integer node count, got {value!r}"
        )
    return value


def check_integer_array(name: str, values: Iterable[Any]) -> np.ndarray:
    """Require integer entries; return them as an integer array.

    An array is checked by its dtype (an empty one of any dtype passes
    as ``int64``), without a pass over its entries.  Other input is
    checked entry by entry, since numpy would read a ``True`` among
    integers as ``1`` and truncate nothing it cannot see: a bool,
    float or any other non-integer entry, or an integer beyond
    ``int64``, raises.  Nested sequences give a nested array.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iu":
            return values
        if not values.size:
            return values.astype(np.int64)
        raise ConfigurationError(
            f"{name} must be integers, got {values.dtype}"
        )
    try:
        entries = np.array(list(values), dtype=object)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be integers: {exc}") from None
    for value in entries.flat:
        if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, np.integer)
        ):
            raise ConfigurationError(
                f"{name} must be integers, got {value!r}"
            )
    try:
        return entries.astype(np.int64)
    except OverflowError as exc:
        raise ConfigurationError(f"{name}: {exc}") from None
