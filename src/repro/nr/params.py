"""NR numerology (38.211 §4): scalable subcarrier spacing.

Subcarrier spacing is ``15 kHz * 2^mu``; a slot is 14 symbols and a
10 ms frame carries ``10 * 2^mu`` slots.  The basic-timing unit — and
hence LScatter's chip duration — shrinks with mu, which is why the same
modulation runs proportionally faster on NR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Symbols per slot (normal CP).
SYMBOLS_PER_SLOT = 14

#: Frame duration in seconds.
FRAME_SECONDS = 10e-3


@dataclass(frozen=True)
class NrNumerology:
    """One NR carrier configuration."""

    mu: int
    n_rb: int
    fft_size: int

    def __post_init__(self):
        if not 0 <= self.mu <= 3:
            raise ValueError("mu must be 0..3")
        if self.n_rb * 12 >= self.fft_size:
            raise ValueError("occupied subcarriers must fit in the FFT")

    @property
    def scs_hz(self):
        return 15e3 * (1 << self.mu)

    @property
    def sample_rate_hz(self):
        return self.fft_size * self.scs_hz

    @property
    def n_subcarriers(self):
        return self.n_rb * 12

    @property
    def slots_per_frame(self):
        return 10 * (1 << self.mu)

    @property
    def cp_samples(self):
        """Normal-CP length (the common symbols; slot-edge extension ignored)."""
        return (144 * self.fft_size) // 2048

    @property
    def symbol_samples(self):
        return self.cp_samples + self.fft_size

    @property
    def samples_per_slot(self):
        return SYMBOLS_PER_SLOT * self.symbol_samples

    @property
    def samples_per_frame(self):
        return self.slots_per_frame * self.samples_per_slot

    def subcarrier_indices(self):
        """FFT bins of the occupied subcarriers (DC unused), low first."""
        half = self.n_subcarriers // 2
        low = (np.arange(half) - half) % self.fft_size
        high = np.arange(1, self.n_subcarriers - half + 1)
        return np.concatenate([low, high])


#: Named carrier presets used by tests/benchmarks.
NR_PRESETS = {
    # 10 MHz at 15 kHz SCS — LTE-like timing.
    "nr10_mu0": NrNumerology(mu=0, n_rb=52, fft_size=1024),
    # 20 MHz at 30 kHz SCS — same sample rate as 20 MHz LTE, half the
    # symbol duration.
    "nr20_mu1": NrNumerology(mu=1, n_rb=51, fft_size=1024),
    # 40 MHz at 30 kHz SCS — the rate headroom 5G brings.
    "nr40_mu1": NrNumerology(mu=1, n_rb=106, fft_size=2048),
}
