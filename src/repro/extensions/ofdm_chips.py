"""Basic-timing-unit backscatter on an arbitrary OFDM carrier.

The LScatter modulation needs only an OFDM symbol layout: where each
useful part starts and how many chips fit.  This module factors that out
(:class:`OfdmSymbolLayout`), provides a generic tag and receiver built on
the same machinery as the LTE pipeline, and ships the 802.11a/g layout —
48 chips per 4 us symbol, i.e. a 12 Mbps ceiling *while a packet is on
air*, which the ambient traffic's occupancy then scales down.  That last
factor is the paper's whole point: the modulation generalises, the
carrier's burstiness does not go away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bsrx.equalizer import equalize_symbol, estimate_channel_from_known
from repro.bsrx.mod_offset import find_modulation_offset
from repro.tag.framing import preamble_bits
from repro.wifi.params import FFT_SIZE, GI_SAMPLES, SYMBOL_SAMPLES
from repro.wifi.receiver import PREAMBLE_SAMPLES


@dataclass(frozen=True)
class OfdmSymbolLayout:
    """Geometry of the modulatable symbols within one transmission."""

    useful_starts: tuple  # sample index of each symbol's useful part
    fft_size: int
    n_chips: int  # chips per symbol (= occupied subcarriers)

    @property
    def chip_offset(self):
        """Chips centred in the useful part (guard on both sides)."""
        return (self.fft_size - self.n_chips) // 2

    @property
    def n_symbols(self):
        return len(self.useful_starts)


def wifi_layout(packet_samples, n_data_symbols):
    """Layout of an 802.11a/g packet's data symbols.

    Skips the PLCP preamble and the SIGNAL symbol (they must reach the
    WiFi receiver unmodified — the analogue of avoiding the PSS/SSS).
    """
    first_data = PREAMBLE_SAMPLES + SYMBOL_SAMPLES
    starts = []
    for sym in range(int(n_data_symbols)):
        start = first_data + sym * SYMBOL_SAMPLES + GI_SAMPLES
        if start + FFT_SIZE <= len(packet_samples):
            starts.append(start)
    return OfdmSymbolLayout(
        useful_starts=tuple(starts), fft_size=FFT_SIZE, n_chips=48
    )


class OfdmChipTag:
    """Chip-level modulation on any OFDM carrier."""

    def __init__(self, layout):
        self.layout = layout
        self._preamble = preamble_bits(layout.n_chips)

    def capacity_bits(self):
        """Payload bits one transmission can carry (first symbol = preamble)."""
        return max(self.layout.n_symbols - 1, 0) * self.layout.n_chips

    def modulate(self, carrier_samples, payload_bits):
        """Reflect the carrier with chips; returns (hybrid, bits_used).

        Symbol 0 carries the preamble; the rest carry payload chips,
        idle-padded with '1'.
        """
        carrier_samples = np.asarray(carrier_samples, dtype=complex)
        payload_bits = np.asarray(payload_bits, dtype=np.int8)
        layout = self.layout
        chips = np.ones(len(carrier_samples))
        used = 0
        for index, start in enumerate(layout.useful_starts):
            lo = start + layout.chip_offset
            if index == 0:
                bits = self._preamble
            else:
                take = min(layout.n_chips, len(payload_bits) - used)
                bits = np.ones(layout.n_chips, dtype=np.int8)
                bits[:take] = payload_bits[used : used + take]
                used += take
            chips[lo : lo + layout.n_chips] = 2.0 * bits - 1.0
        return carrier_samples * chips, used


class OfdmChipReceiver:
    """Generic chip demodulation given the carrier reference."""

    def __init__(self, layout):
        self.layout = layout
        self._preamble = preamble_bits(layout.n_chips)
        # The offset search reaches across the whole guard either side.
        self.search_slack = layout.chip_offset

    def demodulate(self, hybrid, reference, n_payload_bits):
        """Recover payload bits from one modulated transmission."""
        hybrid = np.asarray(hybrid, dtype=complex)
        reference = np.asarray(reference, dtype=complex)
        layout = self.layout
        if layout.n_symbols < 2:
            return np.zeros(0, dtype=np.int8)

        start0 = layout.useful_starts[0]
        y0 = hybrid[start0 : start0 + layout.fft_size]
        x0 = reference[start0 : start0 + layout.fft_size]
        estimate = find_modulation_offset(
            y0, x0, self._preamble, layout.chip_offset, self.search_slack
        )
        chip_wave = np.ones(layout.fft_size)
        chip_wave[estimate.offset : estimate.offset + layout.n_chips] = (
            2.0 * self._preamble - 1.0
        )
        channel = estimate_channel_from_known(y0, x0 * chip_wave)

        bits = []
        for start in layout.useful_starts[1:]:
            y = hybrid[start : start + layout.fft_size]
            x = reference[start : start + layout.fft_size]
            y_eq = equalize_symbol(y, channel)
            lo = estimate.offset
            soft = np.real(
                y_eq[lo : lo + layout.n_chips]
                * np.conj(x[lo : lo + layout.n_chips])
            )
            bits.append((soft > 0).astype(np.int8))
        flat = np.concatenate(bits) if bits else np.zeros(0, dtype=np.int8)
        return flat[: int(n_payload_bits)]
