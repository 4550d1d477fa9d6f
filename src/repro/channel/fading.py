"""Small-scale fading: tapped-delay-line Rician channels.

Indoor venues are "multipath rich" (paper §4.3) — an exponential power
delay profile with several taps; outdoor links are closer to LoS with a
Rician first tap.  Channels are static over a capture (the paper's tags
and radios do not move during a measurement), which also matches the
assumption behind its phase-offset elimination (constant φ over a frame).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng


def venue_k_factor_db(venue, distance_ft):
    """Rician K factor (dB) for a hop of ``distance_ft`` in a venue.

    Short hops are dominated by the direct path: at sample-level chip
    rates, excess-delay taps need metres of extra path, which carry very
    little energy when the endpoints are feet apart.  K shrinks with
    distance faster indoors than outdoors.
    """
    distance_ft = float(distance_ft)
    if venue.startswith("outdoor"):
        return float(np.clip(30.0 - 0.12 * distance_ft, 10.0, 30.0))
    return float(np.clip(32.0 - 1.3 * distance_ft, 3.0, 30.0))


def scatter_fraction(k_db):
    """Fraction of hop power in scattered (non-LoS) taps for a K factor."""
    return 1.0 / (1.0 + 10.0 ** (float(k_db) / 10.0))


def tdl_taps(n_taps, decay_db_per_tap, rician_k_db, rng=None):
    """Draw complex tap gains for an exponential power-delay profile.

    Total *mean* power is normalised to 1 so fading does not change the
    mean link budget.  ``rician_k_db`` sets the ratio of deterministic LoS
    power (tap 0) to the total scattered power across all taps:
    ``K = P_los / P_scatter``.
    """
    rng = make_rng(rng)
    n_taps = int(n_taps)
    if n_taps < 1:
        raise ValueError("need at least one tap")
    profile = 10.0 ** (-decay_db_per_tap * np.arange(n_taps) / 10.0)
    profile /= profile.sum()
    k = 10.0 ** (rician_k_db / 10.0)
    scatter_total = 1.0 / (k + 1.0)
    los = np.sqrt(k / (k + 1.0))
    scatter_powers = profile * scatter_total
    taps = np.sqrt(scatter_powers / 2.0) * (
        rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
    )
    taps[0] += los
    return taps


@dataclass
class FadingChannel:
    """A static tapped-delay-line channel applied by FIR filtering."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps)
        if taps.ndim != 1 or len(taps) == 0:
            raise ValueError(
                f"taps must be a non-empty 1-D array, not shape {taps.shape}"
            )
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        self.taps = taps

    @classmethod
    def rician(cls, k_db=10.0, n_taps=2, decay_db_per_tap=6.0, rng=None):
        """Mostly-LoS channel (outdoor / short range)."""
        return cls(taps=tdl_taps(n_taps, decay_db_per_tap, rician_k_db=k_db, rng=rng))

    @classmethod
    def flat(cls):
        """Ideal single-tap channel (unit gain, zero phase)."""
        return cls(taps=np.array([1.0 + 0.0j]))

    def apply(self, samples):
        """Filter ``samples`` through the channel (keeps input length).

        Channels have a handful of taps, so the FIR runs in direct form:
        one scaled, delayed copy of the input per tap.  ``samples`` is
        never written to (a fleet shares one read-only ambient).
        """
        samples = np.asarray(samples, dtype=complex)
        out = samples * self.taps[0]
        # Taps delayed past the end of a short input contribute nothing.
        for delay, tap in enumerate(self.taps[1 : len(samples)], start=1):
            out[delay:] += samples[:-delay] * tap
        return out

