"""The LTE downlink resource grid for one 10 ms frame.

A grid is a ``(140, n_subcarriers)`` complex array — 20 slots x 7 symbols
by the carrier's occupied subcarriers — plus a parallel occupancy mask
recording what each resource element carries (PSS, SSS, CRS, PDSCH data).
The frame builder fills it; the OFDM modulator serialises it to IQ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from repro.lte.params import (
    LteParams,
    SLOTS_PER_FRAME,
    SYMBOLS_PER_SLOT,
)


class ReKind(IntEnum):
    """What a resource element carries."""

    EMPTY = 0
    PSS = 1
    SSS = 2
    CRS = 3
    DATA = 4
    PBCH = 5


#: Total OFDM symbols in one frame.
SYMBOLS_PER_FRAME = SLOTS_PER_FRAME * SYMBOLS_PER_SLOT


def symbol_index(slot, symbol_in_slot):
    """Flatten (slot, symbol-in-slot) to a 0..139 frame symbol index."""
    if not 0 <= slot < SLOTS_PER_FRAME:
        raise ValueError(f"slot {slot} out of range")
    if not 0 <= symbol_in_slot < SYMBOLS_PER_SLOT:
        raise ValueError(f"symbol {symbol_in_slot} out of range")
    return slot * SYMBOLS_PER_SLOT + symbol_in_slot


@dataclass
class ResourceGrid:
    """One frame's resource elements and their kinds."""

    params: LteParams
    values: np.ndarray = field(init=False)
    kinds: np.ndarray = field(init=False)

    def __post_init__(self):
        shape = (SYMBOLS_PER_FRAME, self.params.n_subcarriers)
        self.values = np.zeros(shape, dtype=complex)
        self.kinds = np.full(shape, ReKind.EMPTY, dtype=np.int8)

    # -- placement helpers -------------------------------------------------

    def centre_indices(self, count):
        """Grid column indices of the ``count`` subcarriers around DC.

        Used for PSS/SSS which always occupy the centre 62 subcarriers.
        Grid columns 0..n/2-1 are negative frequencies (ascending towards
        DC); columns n/2.. are positive frequencies.
        """
        n = self.params.n_subcarriers
        half = count // 2
        low = np.arange(n // 2 - half, n // 2)
        high = np.arange(n // 2, n // 2 + count - half)
        return np.concatenate([low, high])

    def place(self, slot, symbol_in_slot, columns, values, kind):
        """Write ``values`` into one symbol's columns, recording ``kind``."""
        row = symbol_index(slot, symbol_in_slot)
        columns = np.asarray(columns, dtype=np.int64)
        if np.any(self.kinds[row, columns] != ReKind.EMPTY):
            raise ValueError(
                f"resource collision at slot {slot} symbol {symbol_in_slot}"
            )
        self.values[row, columns] = values
        self.kinds[row, columns] = kind

    def data_positions(self):
        """(row, column) arrays of every RE available for PDSCH data.

        Everything not already taken by PSS/SSS/CRS, in time-major order
        (the mapping order used by both the transmitter and the receiver).
        """
        free = self.kinds == ReKind.EMPTY
        rows, cols = np.nonzero(free)
        return rows, cols

    def mark_data(self, rows, cols, values):
        """Fill PDSCH data REs."""
        self.values[rows, cols] = values
        self.kinds[rows, cols] = ReKind.DATA
