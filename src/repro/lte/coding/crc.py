"""Cyclic redundancy checks used by LTE (36.212 §5.1.1).

Three generator polynomials: CRC-24A (transport blocks), CRC-16 and CRC-8.
Bit arrays are MSB-first ``int8`` arrays of 0/1, the convention used by the
whole coding chain.

A CRC register is linear over GF(2) in the message bits: the parity of a
block is the XOR of the parities of its set bits taken one at a time, and
the parity of a lone 1 depends only on how many bits follow it.  So
:func:`crc_compute` XORs rows of a cached per-kind *syndrome table*
(entry ``k`` is the register after a 1 followed by ``k`` zeros) instead of
clocking the shift register once per bit.
"""

from __future__ import annotations

import numpy as np

from repro.utils.cache import memoize

#: Generator polynomials (without the leading x^L term), MSB first.
_POLYNOMIALS = {
    "crc24a": (24, 0x864CFB),
    "crc16": (16, 0x1021),
    "crc8": (8, 0x9B),
}


def _generator(kind):
    """``(length, polynomial)`` of a CRC kind; ``ValueError`` if unknown."""
    if kind not in _POLYNOMIALS:
        raise ValueError(f"unknown CRC kind {kind!r}")
    return _POLYNOMIALS[kind]


@memoize()
def _syndromes(kind, size):
    """Registers left by a 1 followed by ``0 .. size-1`` zeros, as ``int64``.

    ``size`` is a power of two, so every block length shares one table
    per octave and the cache stays a handful of entries per kind.
    """
    length, poly = _POLYNOMIALS[kind]
    mask = (1 << length) - 1
    top = 1 << (length - 1)
    table = np.empty(size, dtype=np.int64)
    register = poly  # a lone 1 fed into the zero register
    for k in range(size):
        table[k] = register
        register = ((register << 1) & mask) ^ (poly if register & top else 0)
    return table


def crc_compute(bits, kind="crc24a"):
    """Compute the CRC of a bit array; returns an ``int8`` bit array.

    >>> parity = crc_compute(np.zeros(10, dtype=np.int8))
    >>> int(parity.sum())
    0
    >>> "".join(map(str, crc_compute(np.array([1, 0, 1], dtype=np.int8), "crc8")))
    '01011010'
    """
    length, _ = _generator(kind)
    bits = np.asarray(bits)
    n = len(bits)
    size = 1 << max(n - 1, 0).bit_length()
    # Bit i of an n-bit block is followed by n - 1 - i bits.
    table = _syndromes(kind, size)[:n][::-1]
    register = int(np.bitwise_xor.reduce(table[bits != 0]))
    shifts = np.arange(length - 1, -1, -1)
    return ((register >> shifts) & 1).astype(np.int8)


def crc_attach(bits, kind="crc24a"):
    """Append the CRC parity bits to ``bits``."""
    bits = np.asarray(bits, dtype=np.int8)
    return np.concatenate([bits, crc_compute(bits, kind)])


def crc_check(bits_with_crc, kind="crc24a"):
    """Validate a CRC-terminated block; returns ``(payload, ok)``.

    >>> payload, ok = crc_check(crc_attach(np.ones(8, dtype=np.int8)))
    >>> ok, int(payload.sum())
    (True, 8)
    """
    length, _ = _generator(kind)
    bits_with_crc = np.asarray(bits_with_crc, dtype=np.int8)
    if len(bits_with_crc) < length:
        raise ValueError("block shorter than its CRC")
    payload = bits_with_crc[:-length]
    expected = crc_compute(payload, kind)
    ok = bool(np.array_equal(expected, bits_with_crc[-length:]))
    return payload, ok
