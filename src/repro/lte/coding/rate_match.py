"""Rate matching for the convolutional code (36.212 §5.1.4.2).

The three coded-bit streams are each passed through a 32-column sub-block
interleaver, concatenated into a circular buffer, and the buffer is read
(with wrap-around repetition, or truncation for puncturing) to the target
length ``E``.  ``rate_recover`` inverts the process on LLRs, accumulating
soft values for repeated bits and zero-filling punctured ones.
"""

from __future__ import annotations

import numpy as np

from repro.utils.cache import memoize

#: Column permutation pattern for the convolutional-code sub-block
#: interleaver (36.212 Table 5.1.4-2).
_COLUMN_PERMUTATION = np.array(
    [
        1, 17, 9, 25, 5, 21, 13, 29, 3, 19, 11, 27, 7, 23, 15, 31,
        0, 16, 8, 24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30,
    ],
    dtype=np.int64,
)

_N_COLUMNS = 32

#: Sentinel for <NULL> padding positions inside the interleaver matrix.
_NULL = -1


def _subblock_permutation(d):
    """Index map: output position -> input position (or _NULL) for length d."""
    rows = int(np.ceil(d / _N_COLUMNS))
    padded = rows * _N_COLUMNS
    matrix = np.full(padded, _NULL, dtype=np.int64)
    matrix[padded - d :] = np.arange(d)
    matrix = matrix.reshape(rows, _N_COLUMNS)
    permuted = matrix[:, _COLUMN_PERMUTATION]
    return permuted.T.reshape(-1)


@memoize(maxsize=64)
def _circular_buffer_map(d):
    """Map circular-buffer position -> original coded-bit index (length 3d).

    Positions corresponding to <NULL> padding are dropped, so the result has
    exactly ``3 * d`` entries, a permutation of ``0 .. 3d-1`` where stream
    ``i`` bit ``n`` sits at original index ``3 n + i`` (the encoder's
    interleaved output order).  Memoised and read-only: both callers index
    through an ``np.tile`` copy.
    """
    per_stream = _subblock_permutation(d)
    buffers = []
    for stream in range(3):
        mapped = np.where(per_stream == _NULL, _NULL, per_stream * 3 + stream)
        buffers.append(mapped)
    buffer = np.concatenate(buffers)
    return buffer[buffer != _NULL]


def rate_match(coded_bits, target_length):
    """Rate-match ``coded_bits`` (length 3d) to ``target_length`` bits."""
    coded_bits = np.asarray(coded_bits, dtype=np.int8)
    if len(coded_bits) % 3:
        raise ValueError("coded bit count must be a multiple of 3")
    if target_length <= 0:
        raise ValueError("target length must be positive")
    d = len(coded_bits) // 3
    buffer_map = _circular_buffer_map(d)
    reps = int(np.ceil(target_length / len(buffer_map)))
    indices = np.tile(buffer_map, reps)[: int(target_length)]
    return coded_bits[indices]


def rate_recover(llrs, coded_length):
    """Invert rate matching on LLRs; returns ``coded_length`` soft values.

    Repeated transmissions of the same coded bit are summed (chase
    combining); punctured bits come back as 0 (erasure).
    """
    llrs = np.asarray(llrs, dtype=float)
    if coded_length % 3:
        raise ValueError("coded length must be a multiple of 3")
    d = coded_length // 3
    buffer_map = _circular_buffer_map(d)
    reps = int(np.ceil(len(llrs) / len(buffer_map)))
    indices = np.tile(buffer_map, reps)[: len(llrs)]
    recovered = np.zeros(coded_length)
    np.add.at(recovered, indices, llrs)
    return recovered
