"""Chirp spread spectrum: the LoRa physical layer.

A LoRa symbol of spreading factor SF is a linear up-chirp over the band,
cyclically shifted by the symbol value (0 .. 2^SF - 1).  Demodulation
multiplies by a down-chirp and takes the FFT: the symbol value appears as
the peak bin.  The enormous processing gain (2^SF) is why LoRa survives
below the noise floor — and why its symbols are so long that ambient-LoRa
backscatter is throughput-starved even when traffic exists (paper Table 1
and §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LoraParams:
    """One LoRa configuration."""

    spreading_factor: int = 7
    bandwidth_hz: float = 125e3

    def __post_init__(self):
        if not 6 <= self.spreading_factor <= 12:
            raise ValueError("spreading factor must be 6..12")

    @property
    def n_chips(self):
        """Chips (= samples at the chip rate) per symbol: 2^SF."""
        return 1 << self.spreading_factor

    @property
    def bits_per_symbol(self):
        return self.spreading_factor


def chirp(params, up=True, shift=0):
    """One chirp sampled at the chip rate, cyclically shifted by ``shift``."""
    n = params.n_chips
    k = (np.arange(n) + int(shift)) % n
    phase = np.pi * (k.astype(float) ** 2 / n - k.astype(float))
    base = np.exp(1j * phase)
    return base if up else np.conj(base)


def modulate_symbols(params, values):
    """Concatenate shifted up-chirps for an array of symbol values."""
    values = np.asarray(values, dtype=np.int64)
    if np.any((values < 0) | (values >= params.n_chips)):
        raise ValueError("symbol value out of range for this SF")
    return np.concatenate([chirp(params, up=True, shift=v) for v in values])


def demodulate_symbols(params, samples, n_symbols):
    """Dechirp + FFT peak detection; returns (values, peak_magnitudes)."""
    samples = np.asarray(samples, dtype=complex)
    n = params.n_chips
    if len(samples) < n * int(n_symbols):
        raise ValueError("capture shorter than the requested symbols")
    down = chirp(params, up=False)
    values = np.empty(int(n_symbols), dtype=np.int64)
    peaks = np.empty(int(n_symbols))
    for s in range(int(n_symbols)):
        window = samples[s * n : (s + 1) * n] * down
        spectrum = np.abs(np.fft.fft(window))
        values[s] = int(np.argmax(spectrum))
        peaks[s] = float(spectrum[values[s]])
    return values, peaks


def symbols_to_bits(params, values):
    """Gray-free binary expansion of symbol values (MSB first)."""
    values = np.asarray(values, dtype=np.int64)
    sf = params.spreading_factor
    shifts = np.arange(sf - 1, -1, -1)
    return ((values[:, None] >> shifts[None, :]) & 1).astype(np.int8).reshape(-1)


def bits_to_symbols(params, bits):
    """Inverse of :func:`symbols_to_bits` (pads with zeros)."""
    bits = np.asarray(bits, dtype=np.int64)
    sf = params.spreading_factor
    pad = (-len(bits)) % sf
    padded = np.concatenate([bits, np.zeros(pad, dtype=np.int64)])
    groups = padded.reshape(-1, sf)
    weights = 1 << np.arange(sf - 1, -1, -1)
    return groups @ weights
