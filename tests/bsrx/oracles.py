"""Test oracles for the backscatter receiver's kernel.

The offset search, the circular smoothing, the channel estimate and the
one-tap equaliser in :mod:`repro.bsrx` are pinned against the forms they
replaced: the preamble search as two linear ``fftconvolve`` calls (one
for the correlation, one for the energy boxcar), the 15-bin smoothing as
an FFT round trip with the boxcar's frequency response, and the
equaliser as ``y * conj(H) / (|H|^2 + lam)`` evaluated per call.  They
are the receiver's own earlier code, kept unchanged apart from the
smoothing response, which is recomputed per call here instead of being
memoised in the package's cache registry.  They exist only to be
compared against, so they live with the tests.  Do not "optimise" them:
their value is that each is the textbook form of its step.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import fftconvolve

from repro.bsrx.equalizer import SMOOTH_BINS
from repro.bsrx.mod_offset import OffsetEstimate
from repro.lte.ofdm import row_fft, row_ifft


def find_modulation_offset_reference(
    observed_useful,
    expected_useful,
    preamble,
    nominal_offset,
    search_slack,
):
    """The ``fftconvolve`` preamble search over the clamped candidates."""
    observed_useful = np.asarray(observed_useful, dtype=complex)
    expected_useful = np.asarray(expected_useful, dtype=complex)
    preamble = np.asarray(preamble, dtype=np.int8)
    n_chips = len(preamble)
    fft_size = observed_useful.shape[-1]
    if expected_useful.shape != observed_useful.shape:
        raise ValueError("observed and expected symbol shapes differ")

    signs = (2 * preamble - 1).astype(float)
    # Per-sample products z_n = y_n * conj(x_n): equals g * chip_n * |x_n|^2.
    # Leading axes flatten to rows; a 1-D symbol is a one-row stack.
    shape = observed_useful.shape[:-1]
    z = np.multiply(observed_useful, np.conj(expected_useful)).reshape(-1, fft_size)
    weights = (np.abs(expected_useful) ** 2).reshape(-1, fft_size)

    lo = max(0, int(nominal_offset) - int(search_slack))
    hi = min(fft_size - n_chips, int(nominal_offset) + int(search_slack))
    if hi < lo:
        raise ValueError("search window is empty")

    # Sliding correlation over every candidate offset at once.
    corr_all = fftconvolve(z, signs[None, ::-1].astype(complex), mode="valid", axes=1)
    energy_all = fftconvolve(weights, np.ones((1, n_chips)), mode="valid", axes=1).real
    corr_all = corr_all[:, lo : hi + 1]
    energy_all = np.maximum(energy_all[:, lo : hi + 1], 1e-30)

    metrics = np.abs(corr_all) / energy_all
    best = np.argmax(metrics, axis=1)
    rows = np.arange(len(z))
    offset = (lo + best).reshape(shape)
    gain = (corr_all[rows, best] / energy_all[rows, best]).reshape(shape)
    metric = metrics[rows, best].reshape(shape)
    if not shape:
        offset, gain, metric = int(offset), complex(gain), float(metric)
    return OffsetEstimate(offset=offset, gain=gain, metric=metric)


def _smoothing_response(n):
    """Frequency response of the circular ``SMOOTH_BINS`` boxcar over ``n`` bins."""
    kernel = np.zeros(n)
    half = SMOOTH_BINS // 2
    kernel[: half + 1] = 1.0
    kernel[-half:] = 1.0
    kernel /= kernel.sum()
    return np.fft.fft(kernel)


def circular_smooth_rows_reference(values):
    """Circular moving average along the last axis of a complex array."""
    response = _smoothing_response(values.shape[-1])
    return row_ifft(np.multiply(row_fft(values), response))


def estimate_channel_from_known_reference(observed, expected):
    """Smoothed cross-spectrum over smoothed sounding power (weighted LS)."""
    observed = np.asarray(observed, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if observed.shape != expected.shape:
        raise ValueError("observed and expected must be the same shape")
    y = row_fft(observed)
    e = row_fft(expected)
    cross = circular_smooth_rows_reference(np.multiply(y, np.conj(e)))
    power = circular_smooth_rows_reference((np.abs(e) ** 2).astype(complex)).real
    lam = 0.01 * np.mean(power, axis=-1, keepdims=True) + 1e-30
    return cross / (power + lam)


def equalize_symbol_reference(observed, channel):
    """MMSE-style one-tap equalisation of useful symbols, per bin."""
    observed = np.asarray(observed, dtype=complex)
    channel = np.asarray(channel, dtype=complex)
    if observed.shape != channel.shape:
        raise ValueError("symbol and channel must be the same shape")
    y = row_fft(observed)
    power = np.abs(channel) ** 2
    lam = 0.01 * np.mean(power, axis=-1, keepdims=True) + 1e-30
    equalized = np.multiply(y, np.conj(channel)) / (power + lam)
    return row_ifft(equalized)
