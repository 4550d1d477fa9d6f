"""Zadoff-Chu sequences (the mathematics behind the LTE PSS).

A Zadoff-Chu sequence of odd length ``N`` and root ``u`` (coprime with N) is

    x_u(n) = exp(-j pi u n (n + 1) / N)

Its two defining properties — constant amplitude and zero cyclic
autocorrelation at all non-zero lags — are what make the PSS detectable by
simple correlation, and both are covered by tests.
"""

from __future__ import annotations

import math

import numpy as np


def zadoff_chu(root, length):
    """Generate a Zadoff-Chu sequence of odd ``length`` with the given root.

    >>> z = zadoff_chu(25, 63)
    >>> np.allclose(np.abs(z), 1.0)
    True
    """
    length = int(length)
    root = int(root)
    if length <= 0:
        raise ValueError("length must be positive")
    if length % 2 == 0:
        raise ValueError("only odd-length Zadoff-Chu sequences are supported")
    if math.gcd(root, length) != 1:
        raise ValueError(f"root {root} is not coprime with length {length}")
    n = np.arange(length)
    return np.exp(-1j * np.pi * root * n * (n + 1) / length)

