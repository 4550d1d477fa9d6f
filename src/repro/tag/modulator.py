"""The RF switch: chip modulation of the ambient waveform.

Physics recap (paper §3.2.2).  The tag toggles its reflection coefficient
with a square wave of period Ts (one basic-timing unit); the square wave's
first harmonic shifts the reflected signal by 1/Ts — out of the LTE band —
and its *initial phase* (0 or pi per unit) BPSK-modulates the shifted
copy.  At the receiver tuned to ``fc + 1/Ts``, the baseband of the
reflection during unit ``n`` is just ``x_n e^{j theta_n}``: in a
sample-domain simulation where one basic-timing unit is exactly one
sample, reflection is an element-wise multiply by the chip sequence.

The square wave's conversion efficiency (its fundamental carries
``(2/pi)^2`` of the power) is accounted once, in the link budget's
``TAG_LOSS_DB`` — the modulator output stays normalised to the tag input.

:func:`square_wave_harmonics` exposes the harmonic structure (including
the multi-level quantisation that cancels the 3rd/5th harmonics, paper
§3.2.2) for the interference/ablation experiments.
"""

from __future__ import annotations

import numpy as np


class ChipModulator:
    """Apply a chip schedule to the ambient waveform seen at the tag."""

    def __init__(self, multi_level=True):
        #: Whether the tag uses multi-level quantisation to cancel the
        #: 3rd and 5th square-wave harmonics (HitchHike/LoRa-backscatter
        #: technique the paper adopts).
        self.multi_level = bool(multi_level)

    def reflect(self, ambient_at_tag, chips):
        """Reflected baseband at the shifted band (normalised to tag input).

        ``chips`` is the int8 +/-1 array from the controller, one chip per
        sample; +1 keeps the ambient phase, -1 rotates it by pi.
        """
        ambient_at_tag = np.asarray(ambient_at_tag, dtype=complex)
        chips = np.asarray(chips)
        if ambient_at_tag.shape != chips.shape:
            raise ValueError(
                f"ambient ({ambient_at_tag.shape}) and chips ({chips.shape}) "
                "must be sample-aligned"
            )
        return ambient_at_tag * chips

    def harmonic_profile(self):
        """Relative power of the switch waveform at odd harmonics of 1/Ts.

        Returns a dict harmonic-order -> power relative to the input; used
        by the interference experiments.  With multi-level quantisation the
        3rd and 5th harmonics are cancelled; higher ones fall off as 1/m^2.
        """
        profile = {}
        for m in (1, 3, 5, 7, 9):
            power = (2.0 / (np.pi * m)) ** 2
            if self.multi_level and m in (3, 5):
                power = 0.0
            profile[m] = power
        return profile

    def out_of_band_leakage(self):
        """Total relative power the switch sprays beyond the first harmonic."""
        profile = self.harmonic_profile()
        return float(sum(power for m, power in profile.items() if m > 1))


def square_wave_harmonics(n_harmonics=9, multi_level=False):
    """Fourier magnitudes of the +/-1 switching waveform, for plots/tests.

    Returns (orders, amplitudes); even orders are absent (amplitude 0).
    """
    orders = np.arange(1, int(n_harmonics) + 1)
    amplitudes = np.where(orders % 2 == 1, 4.0 / (np.pi * orders), 0.0)
    if multi_level:
        amplitudes = amplitudes.copy()
        amplitudes[(orders == 3) | (orders == 5)] = 0.0
    return orders, amplitudes
