"""On/off carrier-presence processes.

``OnOffTraffic`` is a two-state semi-Markov process with exponential
dwell times — the classic model for CSMA-style bursty channel occupancy.
``ContinuousTraffic`` is the degenerate always-on process (LTE).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng


def nested_busy_mask(n, fraction, n_bursts, rng):
    """Boolean mask covering ``fraction`` of ``n`` samples in bursts, nested.

    Burst centres are drawn from ``rng`` with a draw count that does not
    depend on ``fraction``, and each burst grows symmetrically about its
    centre as ``fraction`` rises — so for a fixed ``rng`` stream the mask
    at a lower fraction is a strict subset of the mask at a higher one
    (wrapping at the ends).  This is the placement idiom that makes the
    :mod:`repro.stress` degradation curves monotone by construction.

    ``fraction == 0`` returns an all-``False`` mask but still consumes the
    same draws, keeping sweep points aligned.
    """
    n = int(n)
    n_bursts = int(n_bursts)
    if n_bursts < 1:
        raise ValueError("n_bursts must be >= 1")
    if not 0.0 <= float(fraction) <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    # Placement draws first, severity-independent count.
    centres = np.sort(rng.integers(0, max(n, 1), size=n_bursts))
    mask = np.zeros(n, dtype=bool)
    if n == 0 or fraction == 0.0:
        return mask
    per_burst = int(np.ceil(fraction * n / n_bursts))
    half = per_burst // 2
    for centre in centres:
        lo = int(centre) - half
        hi = lo + per_burst
        idx = np.arange(lo, hi) % n
        mask[idx] = True
    return mask


@dataclass
class BusyInterval:
    """One carrier-present interval [start, end) in seconds."""

    start: float
    end: float

    @property
    def duration(self):
        return self.end - self.start


class OnOffTraffic:
    """Alternating busy/idle process with a target occupancy ratio.

    ``occupancy`` is the long-run busy fraction; ``mean_busy_s`` the mean
    burst duration (WiFi packets/bursts are milliseconds; LoRa frames are
    long but extremely sparse).
    """

    def __init__(self, occupancy, mean_busy_s=2e-3, rng=None):
        if not 0.0 <= occupancy < 1.0:
            raise ValueError("occupancy must be in [0, 1)")
        self.occupancy = float(occupancy)
        self.mean_busy_s = float(mean_busy_s)
        if self.occupancy > 0:
            self.mean_idle_s = self.mean_busy_s * (1.0 - self.occupancy) / self.occupancy
        else:
            self.mean_idle_s = float("inf")
        self.rng = make_rng(rng)

    def intervals(self, duration_s):
        """Draw the busy intervals covering ``[0, duration_s)``."""
        if self.occupancy == 0.0:
            return []
        out = []
        # Start in the stationary state.
        busy = self.rng.random() < self.occupancy
        t = 0.0
        while t < duration_s:
            if busy:
                length = self.rng.exponential(self.mean_busy_s)
                out.append(BusyInterval(t, min(t + length, duration_s)))
            else:
                length = self.rng.exponential(self.mean_idle_s)
            t += length
            busy = not busy
        return out

    def presence_mask(self, duration_s, resolution_s=1e-3):
        """Boolean busy mask sampled every ``resolution_s``."""
        n = int(np.ceil(duration_s / resolution_s))
        mask = np.zeros(n, dtype=bool)
        for iv in self.intervals(duration_s):
            # Round both edges so quantisation is unbiased even when the
            # bursts are comparable to the resolution.
            lo = int(round(iv.start / resolution_s))
            hi = min(int(round(iv.end / resolution_s)), n)
            mask[lo:hi] = True
        return mask


class ContinuousTraffic:
    """Always-on carrier: the LTE downlink."""

    occupancy = 1.0

    def intervals(self, duration_s):
        return [BusyInterval(0.0, float(duration_s))]

    def presence_mask(self, duration_s, resolution_s=1e-3):
        n = int(np.ceil(duration_s / resolution_s))
        return np.ones(n, dtype=bool)
