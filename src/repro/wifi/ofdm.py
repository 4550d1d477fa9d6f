"""802.11 OFDM symbol assembly and the PLCP preamble."""

from __future__ import annotations

import numpy as np

from repro.wifi.params import (
    DATA_BINS,
    FFT_SIZE,
    GI_SAMPLES,
    PILOT_BINS,
)

#: Short-training-field frequency pattern (bins -26..26, every 4th).
_STF_BINS = np.array([-24, -20, -16, -12, -8, -4, 4, 8, 12, 16, 20, 24])
_STF_VALUES = np.sqrt(13.0 / 6.0) * np.array(
    [
        1 + 1j, -1 - 1j, 1 + 1j, -1 - 1j, -1 - 1j, 1 + 1j,
        -1 - 1j, -1 - 1j, 1 + 1j, 1 + 1j, 1 + 1j, 1 + 1j,
    ]
)

#: Long-training-field values on bins -26..-1, 1..26.
_LTF_VALUES = np.array(
    [1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1,
     1, -1, 1, 1, 1, 1,
     1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1,
     -1, 1, -1, 1, 1, 1, 1],
    dtype=float,
)
_LTF_BINS = np.array([k for k in range(-26, 27) if k != 0], dtype=np.int64)


def _ifft_from_bins(bins_idx, values):
    grid = np.zeros(FFT_SIZE, dtype=complex)
    grid[bins_idx % FFT_SIZE] = values
    return np.fft.ifft(grid) * np.sqrt(FFT_SIZE)


def stf_waveform():
    """The 8 us short training field (160 samples)."""
    base = _ifft_from_bins(_STF_BINS, _STF_VALUES)
    return np.tile(base, 3)[:160]


def ltf_waveform():
    """The 8 us long training field: GI2 + two LTF symbols (160 samples)."""
    base = _ifft_from_bins(_LTF_BINS, _LTF_VALUES)
    return np.concatenate([base[-32:], base, base])


def ltf_symbol():
    """One LTF useful symbol (64 samples) — the channel-sounding template."""
    return _ifft_from_bins(_LTF_BINS, _LTF_VALUES)


def ltf_reference():
    """Frequency-domain LTF values on the 52 used bins."""
    return _LTF_VALUES.astype(complex)


def assemble_symbol(data_values, pilot_sign):
    """One OFDM data symbol from 48 data values and the pilot polarity."""
    if len(data_values) != len(DATA_BINS):
        raise ValueError(f"need {len(DATA_BINS)} data values")
    grid = np.zeros(FFT_SIZE, dtype=complex)
    grid[DATA_BINS % FFT_SIZE] = data_values
    grid[PILOT_BINS % FFT_SIZE] = pilot_sign * np.array([1, 1, 1, -1], dtype=float)
    useful = np.fft.ifft(grid) * np.sqrt(FFT_SIZE)
    return np.concatenate([useful[-GI_SAMPLES:], useful])


def split_symbol(samples):
    """FFT one received symbol; returns (data_values, pilot_values)."""
    if len(samples) != FFT_SIZE + GI_SAMPLES:
        raise ValueError("wrong symbol length")
    useful = samples[GI_SAMPLES:]
    bins = np.fft.fft(useful) / np.sqrt(FFT_SIZE)
    return bins[DATA_BINS % FFT_SIZE], bins[PILOT_BINS % FFT_SIZE]


def used_bins_values(samples):
    """FFT one useful symbol (64 samples) onto the 52 used bins."""
    bins = np.fft.fft(samples) / np.sqrt(FFT_SIZE)
    return bins[_LTF_BINS % FFT_SIZE]
