"""802.11a/g OFDM numerology and rate table.

20 MHz channel, 64-point FFT, 48 data + 4 pilot subcarriers, 4 us symbols
(3.2 us useful + 0.8 us GI) — the contrast the paper draws against LTE's
66.7 us symbols is exactly this 16x ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Sample rate (Hz) for the 20 MHz channel.
SAMPLE_RATE_HZ = 20e6

#: FFT size.
FFT_SIZE = 64

#: Guard-interval samples (0.8 us).
GI_SAMPLES = 16

#: Samples per OFDM symbol (4 us).
SYMBOL_SAMPLES = FFT_SIZE + GI_SAMPLES

#: Symbol duration in seconds.
SYMBOL_SECONDS = SYMBOL_SAMPLES / SAMPLE_RATE_HZ

#: Data subcarrier indices (FFT bins), per 802.11-2016 §17.3.5.10.
_ALL_USED = np.array(
    [k for k in range(-26, 27) if k != 0], dtype=np.int64
)
PILOT_BINS = np.array([-21, -7, 7, 21], dtype=np.int64)
DATA_BINS = np.array(
    [k for k in _ALL_USED if k not in set(PILOT_BINS.tolist())], dtype=np.int64
)

#: Pilot polarity sequence (127-periodic) — first few terms; the full
#: sequence is generated by the scrambler LFSR with all-ones state.
def pilot_polarity(n_symbols):
    """First ``n_symbols`` values of the 802.11 pilot polarity sequence."""
    state = 0x7F
    out = np.empty(int(n_symbols), dtype=np.int8)
    for i in range(int(n_symbols)):
        bit = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | bit) & 0x7F
        out[i] = 1 - 2 * bit
    return out


@dataclass(frozen=True)
class WifiRate:
    """One 802.11a/g rate: modulation and coding configuration."""

    rate_mbps: float
    modulation: str  # bpsk/qpsk/16qam/64qam (LTE-style names reused)
    bits_per_subcarrier: int
    code_rate_num: int
    code_rate_den: int
    signal_bits: int  # RATE field encoding

    @property
    def coded_bits_per_symbol(self):
        return self.bits_per_subcarrier * len(DATA_BINS)

    @property
    def data_bits_per_symbol(self):
        return (
            self.coded_bits_per_symbol * self.code_rate_num // self.code_rate_den
        )


#: 802.11a/g rate set (Mbps -> config).
WIFI_RATES = {
    6.0: WifiRate(6.0, "bpsk", 1, 1, 2, 0b1101),
    12.0: WifiRate(12.0, "qpsk", 2, 1, 2, 0b0101),
    24.0: WifiRate(24.0, "16qam", 4, 1, 2, 0b1001),
    54.0: WifiRate(54.0, "64qam", 6, 3, 4, 0b0011),
}

