"""PDSCH bit scrambling (36.211 §6.3.1).

Scrambling whitens the coded bits with a Gold sequence seeded by the RNTI,
codeword index, slot and cell identity, so that inter-cell interference
looks noise-like.  LLR descrambling flips soft-value signs where the
scrambling bit is 1.
"""

from __future__ import annotations

import numpy as np

from repro.lte.gold import gold_sequence


def pdsch_c_init(rnti, subframe, cell_id):
    """Scrambling-sequence seed for the PDSCH's one codeword (index 0)."""
    return (
        (int(rnti) << 14)
        + ((int(subframe) % 10) << 9)
        + int(cell_id)
    )


def scramble_bits(bits, c_init):
    """XOR a bit array with the Gold sequence for ``c_init``."""
    bits = np.asarray(bits, dtype=np.int8)
    sequence = gold_sequence(c_init, len(bits))
    return (bits ^ sequence).astype(np.int8)


def descramble_llrs(llrs, c_init):
    """Undo scrambling on LLRs (sign flip where the scrambling bit is 1)."""
    llrs = np.asarray(llrs, dtype=float)
    sequence = gold_sequence(c_init, len(llrs)).astype(float)
    return llrs * (1.0 - 2.0 * sequence)
