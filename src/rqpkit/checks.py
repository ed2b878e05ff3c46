"""Argument checks shared by every module: one rule for integers and one for real numbers.

A refused value raises ValueError naming the argument, never a bare TypeError or OverflowError.
"""

import math

import numpy as np


def check_int(name: str, value, minimum: int) -> None:
    """Refuse an argument or config field that is not an integer (bools excluded) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_finite(name: str, value) -> float:
    """value as a float; ValueError unless it is a finite int, float or NumPy number, not a bool."""
    return _check_real(name, value, "finite", -math.inf)


def check_positive(name: str, value) -> float:
    """value as a float; ValueError unless check_finite takes it and it is > 0."""
    return _check_real(name, value, "positive and finite", 0.0)


def _check_real(name: str, value, what: str, above: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int past the double range; past 4300 digits str() fails too
        raise ValueError(f"{name} must be {what}, got an integer too large for a float") from None
    if not above < v < math.inf:  # NaN compares false
        raise ValueError(f"{name} must be {what}, got {value}")
    return v
