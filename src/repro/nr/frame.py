"""NR-lite downlink frame builder.

One 10 ms frame: an SS/PBCH-style block (PSS symbol, SSS symbol, filler
around them) at the start of slot 0, DMRS pilots on two symbols of every
slot, and QPSK payload elsewhere.  No NR channel-coding chain — the
backscatter experiments only need a standard-shaped carrier; the LTE
substrate already covers the "does the ambient decode survive" question.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lte.gold import gold_qpsk
from repro.lte.modulation import modulate
from repro.nr.params import SYMBOLS_PER_SLOT, NrNumerology
from repro.nr.sync import NR_SYNC_LENGTH, nr_pss, nr_sss
from repro.utils.rng import make_rng

#: Symbols of slot 0 carrying the SSB (PSS, PBCH, SSS, PBCH).
SSB_SYMBOLS = (2, 3, 4, 5)
PSS_SYMBOL = 2
SSS_SYMBOL = 4

#: DMRS symbols within each slot.
DMRS_SYMBOLS = (2, 11)

#: DMRS comb spacing (every 4th subcarrier).
DMRS_SPACING = 4


@dataclass
class NrCapture:
    """A built NR frame: samples, grid, and layout metadata."""

    numerology: NrNumerology
    samples: np.ndarray
    grid: np.ndarray  # (n_symbols, n_subcarriers)
    cell_id: int

    @property
    def duration_seconds(self):
        return len(self.samples) / self.numerology.sample_rate_hz

    def useful_start(self, slot, symbol_in_slot):
        num = self.numerology
        return (
            slot * num.samples_per_slot
            + symbol_in_slot * num.symbol_samples
            + num.cp_samples
        )


class NrFrameBuilder:
    """Build standard-shaped NR-lite frames."""

    def __init__(self, numerology, n_id_1=0, n_id_2=0, rng=None):
        self.numerology = numerology
        if not 0 <= n_id_1 <= 335 or n_id_2 not in (0, 1, 2):
            raise ValueError("invalid NR cell identity")
        self.n_id_1 = n_id_1
        self.n_id_2 = n_id_2
        self.rng = make_rng(rng)

    @property
    def cell_id(self):
        return 3 * self.n_id_1 + self.n_id_2

    def _centre_columns(self, count):
        n = self.numerology.n_subcarriers
        half = count // 2
        return np.arange(n // 2 - half, n // 2 - half + count)

    def _dmrs(self, slot, symbol):
        """DMRS pilots: Gold-seeded QPSK on the comb."""
        n = self.numerology.n_subcarriers
        cols = np.arange(self.cell_id % DMRS_SPACING, n, DMRS_SPACING)
        c_init = (
            (slot * SYMBOLS_PER_SLOT + symbol + 1) * (2 * self.cell_id + 1) * 2048
            + self.cell_id
        ) % (1 << 31)
        return cols, gold_qpsk(c_init, len(cols))

    def build(self):
        """Build one frame; returns an :class:`NrCapture`."""
        num = self.numerology
        n_symbols = num.slots_per_frame * SYMBOLS_PER_SLOT
        grid = np.zeros((n_symbols, num.n_subcarriers), dtype=complex)

        # Payload QPSK everywhere first.
        payload_bits = self.rng.integers(
            0, 2, size=2 * grid.size
        ).astype(np.int8)
        grid[:, :] = modulate(payload_bits, "qpsk").reshape(grid.shape)

        # DMRS pilots overwrite their comb.
        for slot in range(num.slots_per_frame):
            for sym in DMRS_SYMBOLS:
                row = slot * SYMBOLS_PER_SLOT + sym
                cols, pilots = self._dmrs(slot, sym)
                grid[row, cols] = pilots

        # The SSB overwrites slot 0's symbols 2-5 (with a 3 dB boost like
        # the LTE builder, for the tag's envelope circuit).
        boost = 10 ** (6.0 / 20.0)
        sync_cols = self._centre_columns(NR_SYNC_LENGTH)
        pss_row = PSS_SYMBOL
        sss_row = SSS_SYMBOL
        for sym in SSB_SYMBOLS:
            grid[sym, :] *= 0.5  # PBCH-region filler kept light
        grid[pss_row, :] = 0
        grid[pss_row, sync_cols] = boost * nr_pss(self.n_id_2)
        grid[sss_row, :] = 0
        grid[sss_row, sync_cols] = boost * nr_sss(self.n_id_1, self.n_id_2)

        samples = self._modulate(grid)
        return NrCapture(
            numerology=num, samples=samples, grid=grid, cell_id=self.cell_id
        )

    def _modulate(self, grid):
        num = self.numerology
        bins_index = num.subcarrier_indices()
        pieces = []
        for row in range(grid.shape[0]):
            bins = np.zeros(num.fft_size, dtype=complex)
            bins[bins_index] = grid[row]
            useful = np.fft.ifft(bins) * np.sqrt(num.fft_size)
            pieces.append(np.concatenate([useful[-num.cp_samples :], useful]))
        return np.concatenate(pieces)
