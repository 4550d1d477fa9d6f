"""Thermal noise at IQ level.

Waveforms in the reproduction carry amplitudes in sqrt-milliwatt units, so
a sample stream with mean |x|^2 = p represents p mW of signal power.  The
matching noise floor for a receiver sampled at the signal bandwidth is
``kTB * NF`` over that bandwidth.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.units import dbm_to_watts, thermal_noise_dbm


def noise_std_for_bandwidth(bandwidth_hz, noise_figure_db=6.0):
    """Per-quadrature noise standard deviation in sqrt-mW units."""
    noise_dbm = thermal_noise_dbm(bandwidth_hz, noise_figure_db)
    noise_mw = dbm_to_watts(noise_dbm) * 1e3
    return float(np.sqrt(noise_mw / 2.0))


def add_thermal_noise(samples, bandwidth_hz, noise_figure_db=6.0, rng=None):
    """Add kTB+NF complex noise to a sqrt-mW waveform; returns a new array.

    One ``(2, n)`` standard-normal draw holds the in-phase row, then the
    quadrature row: the same stream as two length-``n`` draws, leaving
    the generator in the same state.  The draw is scaled in place and
    added to a copy of ``samples`` through its ``.real``/``.imag`` views,
    so the input is never written.  The result equals
    ``samples + std * (a + 1j * b)`` bit for bit, since both forms round
    ``std * a`` and ``std * b`` once and add them to the parts once.
    """
    rng = make_rng(rng)
    noisy = np.array(samples, dtype=complex)
    draw = rng.standard_normal((2, len(noisy)))
    draw *= noise_std_for_bandwidth(bandwidth_hz, noise_figure_db)
    noisy.real += draw[0]
    noisy.imag += draw[1]
    return noisy
