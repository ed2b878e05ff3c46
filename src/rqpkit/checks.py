"""Argument checks shared by the synthetic generator and the regressor's configs."""

import numpy as np


def check_int(name: str, value, minimum: int) -> None:
    """Refuse an argument or config field that is not an integer (bools excluded) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
