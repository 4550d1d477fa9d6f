"""Small DSP primitives shared by the PHY layers.

Only generic signal-processing helpers live here; anything specific to LTE,
WiFi, or the tag belongs in its own subsystem package.
"""

from __future__ import annotations

import numpy as np


def rc_lowpass(x, alpha):
    """First-order RC low-pass filter: ``y[n] = y[n-1] + alpha (x[n] - y[n-1])``.

    ``alpha = dt / (tau + dt)`` for a continuous time constant ``tau``
    sampled every ``dt``.  Implemented with ``scipy.signal.lfilter`` for
    speed on long captures.
    """
    from scipy.signal import lfilter

    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return lfilter([alpha], [1.0, alpha - 1.0], np.asarray(x, dtype=float))


def rc_alpha(tau_seconds, sample_rate_hz):
    """Convert an RC time constant to the discrete filter coefficient."""
    dt = 1.0 / float(sample_rate_hz)
    return dt / (float(tau_seconds) + dt)


def awgn(samples, snr_db, rng):
    """Add complex white Gaussian noise for a target per-sample SNR in dB.

    The signal power is measured from ``samples`` themselves; silent inputs
    get noise scaled to unit signal power so the call never divides by zero.
    """
    samples = np.asarray(samples, dtype=complex)
    power = float(np.mean(np.abs(samples) ** 2))
    if power <= 0.0:
        power = 1.0
    noise_power = power / (10.0 ** (snr_db / 10.0))
    scale = np.sqrt(noise_power / 2.0)
    noise = scale * (
        rng.standard_normal(len(samples)) + 1j * rng.standard_normal(len(samples))
    )
    return samples + noise


def bits_to_int(bits):
    """Interpret a bit array (MSB first) as a Python int."""
    value = 0
    for bit in np.asarray(bits, dtype=int):
        value = (value << 1) | int(bit)
    return value


def int_to_bits(value, width):
    """Convert an int to an MSB-first bit array of length ``width``."""
    if value < 0:
        raise ValueError("value must be non-negative")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.int8)
