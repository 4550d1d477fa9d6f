"""Boundary checks shared by the config dataclasses."""

from __future__ import annotations

import math
import numbers


def require_finite(name, value, minimum=None, above=None):
    """Reject a non-numeric, NaN or infinite ``value``, naming the field.

    ``minimum`` is an inclusive lower bound, ``above`` an exclusive one.

    >>> require_finite("carrier_hz", 680e6, above=0.0)
    >>> require_finite("carrier_hz", -1.0, above=0.0)
    Traceback (most recent call last):
    ...
    ValueError: carrier_hz must be a finite number > 0, got -1.0
    """
    if not (isinstance(value, numbers.Real) and math.isfinite(value)) or (
        (minimum is not None and value < minimum)
        or (above is not None and value <= above)
    ):
        bound = "" if minimum is None else f" >= {minimum:g}"
        bound += "" if above is None else f" > {above:g}"
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


def require_whole(name, value, minimum=None):
    """Reject anything but a finite whole number (``2.0`` passes, ``2.5`` not).

    ``minimum`` is an inclusive lower bound.
    """
    if not (
        isinstance(value, numbers.Real)
        and math.isfinite(value)
        and float(value).is_integer()
        and (minimum is None or value >= minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum:g}"
        raise ValueError(f"{name} must be a whole number{bound}, got {value!r}")
