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

Both functions work along the last axis, so a ``(..., fft_size)`` stack
of symbols (the demodulator stacks every tag and window of a half-frame)
runs as one batched transform, row-for-row bit-identical to calling them
on each 1-D row: the transforms are the same pocketfft, the smoothing
response is shared, and each row's regulariser is a last-axis mean.
Complex products are written as ``np.multiply`` calls on purpose: once an
operand reaches numpy's 256 KiB temporary-elision threshold, ``a * b``
with a temporary ``b`` runs in place as ``b *= a``, and complex multiply
is not bitwise commutative, so a large stack would drift from its rows in
the last ulp.  A ufunc call is never elided.
"""

from __future__ import annotations

import numpy as np

from repro.lte.ofdm import row_fft, row_ifft
from repro.utils.cache import memoize

#: Smoothing window (bins).  A W-bin boxcar tolerates delay spreads up to
#: ~N/W samples; channels here are <= a handful of taps.
SMOOTH_BINS = 15


@memoize()
def _smoothing_response(n):
    """Frequency response of the circular ``SMOOTH_BINS`` boxcar over ``n`` bins."""
    kernel = np.zeros(n)
    half = SMOOTH_BINS // 2
    kernel[: half + 1] = 1.0
    kernel[-half:] = 1.0
    kernel /= kernel.sum()
    return np.fft.fft(kernel)


def _circular_smooth_rows(values):
    """Circular moving average along the last axis of a complex array."""
    response = _smoothing_response(values.shape[-1])
    return row_ifft(np.multiply(row_fft(values), response))


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
    y = row_fft(observed)
    e = row_fft(expected)
    cross = _circular_smooth_rows(np.multiply(y, np.conj(e)))
    power = _circular_smooth_rows((np.abs(e) ** 2).astype(complex)).real
    lam = 0.01 * np.mean(power, axis=-1, keepdims=True) + 1e-30
    return cross / (power + lam)


def equalize_symbol(observed, channel):
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
