"""Field rules shared by the domain constructors and the config.

Each rule checks one value, returns it normalised, and names the field
when it raises: TypeError for the wrong kind of value, ValueError for
one out of range or not among the field's options.
"""

from __future__ import annotations

import math
import sys
from numbers import Integral, Real


def integer(value, name: str, floor: int = 0) -> int:
    """``value`` as an ``int`` >= ``floor``: any Integral but bool, never truncated."""
    if type(value) is not int:  # plain ints skip the slower ABC check
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}, got {value}")
    return value


def finite(value, name: str) -> float:
    """``value`` as a finite ``float``: any Real but bool; an int too large
    for a float is not finite."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value}")
    return x


def positive(value, name: str) -> float:
    """``value`` as a finite ``float`` > 0."""
    x = finite(value, name)
    if x <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return x


def noise_amplitude(value) -> float:
    """``value`` as a float in (0, sys.float_info.max / 2]: uniform(-a, a) needs 2a finite."""
    a = positive(value, "noise amplitude")
    if a > sys.float_info.max / 2:
        raise ValueError(f"noise amplitude must be <= {sys.float_info.max / 2!r}, got {value}")
    return a


def choice(value, name: str, options: tuple):
    """``value`` if one of ``options``, a tuple, so an unhashable value is refused too."""
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value
