"""Backscatter-path channel estimation and equalisation.

The phase offset of paper Eq. 5 is the flat-channel special case; over a
multipath channel the rotation varies per subcarrier (the paper's
challenge C3: "the phase offset is varying on different subcarriers").
The tag's preamble symbol doubles as a full-band sounding sequence — chip
modulation spreads the LTE signal over the entire FFT band, so a single
preamble symbol excites every bin.  The channel is estimated by weighted
least squares with circular smoothing across bins: backscatter channels
are short (a few taps), so the true response varies slowly in frequency,
and the smoothing both averages noise and rides over the sounding
spectrum's occasional deep nulls.

Every function works along the last axis, so a ``(..., fft_size)`` stack
of symbols (the demodulator stacks every tag and window of a half-frame)
runs as one batched transform, row-for-row bit-identical to calling it
on each 1-D row: the transforms are the same pocketfft, the smoothing is
a direct sum of shifted slices of the row itself (no transform), and
each row's regulariser is a last-axis mean.  The demodulator works on spectra: it transforms a
preamble once for both its channel estimate and its equalisation, and
computes the one-tap weights (:func:`equalizer_weights`) once per packet
for all of that packet's data windows.
Complex products are written as ``np.multiply`` calls on purpose: once an
operand reaches numpy's 256 KiB temporary-elision threshold, ``a * b``
with a temporary ``b`` runs in place as ``b *= a``, and complex multiply
is not bitwise commutative, so a large stack would drift from its rows in
the last ulp.  A ufunc call is never elided.
"""

from __future__ import annotations

import numpy as np

from repro.lte.ofdm import row_fft, row_ifft

#: Smoothing window (bins).  A W-bin boxcar tolerates delay spreads up to
#: ~N/W samples; channels here are <= a handful of taps.
#: :func:`_circular_smooth_rows` sums its terms as 8 + 4 + 2 + 1.
SMOOTH_BINS = 15


def _power(values):
    """``|values|^2`` of a complex array, as floats."""
    return np.square(values.real) + np.square(values.imag)


def _circular_smooth_rows(values):
    """Circular ``SMOOTH_BINS``-bin moving average along the last axis.

    Bin ``k`` averages bins ``k - 7 .. k + 7`` (mod the row length).  The
    row is padded with its own wrapped ends, and each window's 15 = 8 + 4
    + 2 + 1 terms are summed from partial sums of 2 and 4 neighbours.
    """
    n = values.shape[-1]
    half = SMOOTH_BINS // 2
    padded = np.concatenate((values[..., -half:], values, values[..., :half]), -1)
    pairs = np.add(padded[..., :-1], padded[..., 1:])  # pairs[j] = padded[j : j + 2]
    quads = np.add(pairs[..., :-2], pairs[..., 2:])  # quads[j] = padded[j : j + 4]
    total = np.add(quads[..., :n], quads[..., 4 : 4 + n])  # padded[k : k + 8]
    total += quads[..., 8 : 8 + n]
    total += pairs[..., 12 : 12 + n]
    total += padded[..., 14 : 14 + n]
    total *= 1.0 / SMOOTH_BINS
    return total


def channel_from_spectra(observed, expected):
    """Smoothed weighted-LS channel from observed/expected spectra (rows)."""
    cross = _circular_smooth_rows(np.multiply(observed, np.conj(expected)))
    power = _circular_smooth_rows(_power(expected))
    lam = 0.01 * np.mean(power, axis=-1, keepdims=True) + 1e-30
    return np.multiply(cross, 1.0 / (power + lam))


def estimate_channel_from_known(observed, expected):
    """Per-bin channel from symbols whose content is known.

    ``observed``/``expected`` are same-shape time-domain useful symbols,
    one per row of the last axis.  Returns the frequency responses (same
    shape), computed as smoothed cross-spectrum over smoothed sounding
    power (weighted LS).
    """
    observed = np.asarray(observed, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if observed.shape != expected.shape:
        raise ValueError("observed and expected must be the same shape")
    return channel_from_spectra(row_fft(observed), row_fft(expected))


def equalizer_weights(channel):
    """MMSE-style one-tap weights ``conj(H) / (|H|^2 + lam)``, per bin.

    ``lam`` is 1 % of each row's mean ``|H|^2``; multiply a symbol's
    spectrum by its channel row's weights to equalise it.
    """
    power = _power(channel)
    lam = 0.01 * np.mean(power, axis=-1, keepdims=True) + 1e-30
    return np.multiply(np.conj(channel), 1.0 / (power + lam))


def equalize_symbol(observed, channel):
    """MMSE-style one-tap equalisation of useful symbols, per bin."""
    observed = np.asarray(observed, dtype=complex)
    channel = np.asarray(channel, dtype=complex)
    if observed.shape != channel.shape:
        raise ValueError("symbol and channel must be the same shape")
    return row_ifft(np.multiply(row_fft(observed), equalizer_weights(channel)))
