"""Argument checks shared by the public constructors."""

from __future__ import annotations

import numpy as np


def integer(name: str, value) -> int:
    """An integer argument: integral numbers pass (10.0 too), bools, strings and 2.7 do not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
