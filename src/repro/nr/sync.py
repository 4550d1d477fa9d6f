"""NR synchronisation signals (38.211 §7.4.2): 127-long m-sequences.

Unlike LTE's Zadoff-Chu PSS, NR uses BPSK m-sequences — but the tag's
envelope circuit never cared about the sequence family, only about the
periodic power structure, and the UE detection is still a correlation.
"""

from __future__ import annotations

import numpy as np

#: Length of the NR PSS/SSS sequences.
NR_SYNC_LENGTH = 127


def _m_sequence(init_bits, taps):
    """Length-127 binary m-sequence from a degree-7 LFSR.

    ``init_bits`` are x(0)..x(6); ``taps`` the recursion offsets so that
    x(i+7) = sum(x(i+t) for t in taps) mod 2.
    """
    x = list(init_bits)
    for i in range(NR_SYNC_LENGTH - 7):
        x.append(sum(x[i + t] for t in taps) % 2)
    return np.array(x, dtype=np.int8)


#: PSS generator: x(i+7) = x(i+4) + x(i), init x(0..6) = 0,1,1,0,1,1,1.
_PSS_X = _m_sequence([0, 1, 1, 0, 1, 1, 1], (4, 0))

#: SSS generators (38.211 §7.4.2.3): both init to x(0)=1, rest 0.
_SSS_X0 = _m_sequence([1, 0, 0, 0, 0, 0, 0], (4, 0))
_SSS_X1 = _m_sequence([1, 0, 0, 0, 0, 0, 0], (1, 0))


def nr_pss(n_id_2):
    """NR PSS: d(n) = 1 - 2 x((n + 43 N_ID2) mod 127)."""
    if n_id_2 not in (0, 1, 2):
        raise ValueError("N_ID^(2) must be 0..2")
    n = np.arange(NR_SYNC_LENGTH)
    return (1 - 2 * _PSS_X[(n + 43 * n_id_2) % NR_SYNC_LENGTH]).astype(float)


def nr_sss(n_id_1, n_id_2):
    """NR SSS: product of two shifted m-sequences."""
    if not 0 <= n_id_1 <= 335:
        raise ValueError("N_ID^(1) must be 0..335")
    if n_id_2 not in (0, 1, 2):
        raise ValueError("N_ID^(2) must be 0..2")
    m0 = 15 * (n_id_1 // 112) + 5 * n_id_2
    m1 = n_id_1 % 112
    n = np.arange(NR_SYNC_LENGTH)
    s0 = 1 - 2 * _SSS_X0[(n + m0) % NR_SYNC_LENGTH]
    s1 = 1 - 2 * _SSS_X1[(n + m1) % NR_SYNC_LENGTH]
    return (s0 * s1).astype(float)
