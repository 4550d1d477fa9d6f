"""Carrier-frequency-offset estimation and correction.

A real UE's oscillator is off by up to ~1 ppm (hundreds of Hz at
680 MHz); uncorrected, the offset rotates the constellation within each
symbol and destroys both the LTE decode and the backscatter chips.  The
classic cyclic-prefix estimator exploits the CP being a copy of the
symbol tail: correlating the two measures the phase slope across exactly
one useful-symbol duration, i.e. the CFO as a fraction of the subcarrier
spacing.
"""

from __future__ import annotations

import numpy as np

from repro.lte.ofdm import frame_layout
from repro.lte.params import (
    LteParams,
    SUBCARRIER_SPACING_HZ,
    SYMBOLS_PER_SLOT,
)
from repro.lte.resource_grid import SYMBOLS_PER_FRAME


def apply_cfo(samples, cfo_hz, sample_rate_hz):
    """Impair a waveform with a carrier frequency offset."""
    samples = np.asarray(samples, dtype=complex)
    n = np.arange(len(samples))
    rotation = np.exp(1j * (2.0 * np.pi * float(cfo_hz) * n / float(sample_rate_hz)))
    return samples * rotation


def estimate_cfo(samples, params, max_symbols=140):
    """CP-based CFO estimate in Hz over a frame-aligned capture.

    Averages the CP-to-tail correlation of up to ``max_symbols`` symbols;
    unambiguous for offsets within ±7.5 kHz (half the subcarrier spacing),
    far beyond any realistic crystal error.
    """
    samples = np.asarray(samples, dtype=complex)
    if not isinstance(params, LteParams):
        params = LteParams.from_bandwidth(params)
    layout = frame_layout(params)
    # Symbols tile the frame back-to-back, so the set that fits entirely
    # within the capture is a prefix of the layout.
    n_fit = int(
        np.searchsorted(layout.starts + layout.lengths, len(samples), side="right")
    )
    counted = min(n_fit, int(max_symbols), SYMBOLS_PER_FRAME)
    if counted <= 0:
        raise ValueError("capture shorter than one OFDM symbol")
    fft_size = params.fft_size
    samples_per_slot = params.samples_per_slot
    accumulator = 0.0 + 0.0j
    # Whole slots first: a (n_slots, samples_per_slot) view turns each of
    # the 7 symbol positions into one strided head/tail slice pair — no
    # index arrays, just views into the capture.
    full_slots = counted // SYMBOLS_PER_SLOT
    remainder = counted - full_slots * SYMBOLS_PER_SLOT
    if full_slots:
        by_slot = samples[: full_slots * samples_per_slot].reshape(
            full_slots, samples_per_slot
        )
        for sym in range(SYMBOLS_PER_SLOT):
            cp = int(layout.cp_in_slot[sym])
            start = int(layout.starts_in_slot[sym])
            heads = by_slot[:, start : start + cp]
            tails = by_slot[:, start + fft_size : start + fft_size + cp]
            accumulator += np.sum(np.conj(heads) * tails)
    base = full_slots * samples_per_slot
    for sym in range(remainder):
        cp = int(layout.cp_in_slot[sym])
        start = base + int(layout.starts_in_slot[sym])
        accumulator += np.vdot(
            samples[start : start + cp],
            samples[start + fft_size : start + fft_size + cp],
        )
    # The tail lags the CP by exactly fft_size samples = 1/SCS seconds.
    return float(np.angle(accumulator) / (2.0 * np.pi) * SUBCARRIER_SPACING_HZ)


def correct_cfo(samples, cfo_hz, sample_rate_hz):
    """Derotate a waveform by an estimated CFO."""
    return apply_cfo(samples, -float(cfo_hz), sample_rate_hz)

