"""Occupancy statistics: week-long sampling and CDFs (paper Fig. 4c)."""

from __future__ import annotations

import numpy as np

from repro.traffic.diurnal import hourly_occupancy
from repro.utils.rng import make_rng


#: Measurement windows per hour of the week-long survey.
SAMPLES_PER_HOUR = 4


def weekly_occupancy_samples(technology, venue, rng=None):
    """A week of occupancy-ratio samples for one (technology, venue).

    7 days x 24 hours x :data:`SAMPLES_PER_HOUR` independent window
    ratios — the measurement procedure behind the paper's Fig. 4c CDFs.
    """
    rng = make_rng(rng)
    out = []
    for _day in range(7):
        for hour in range(24):
            for _ in range(SAMPLES_PER_HOUR):
                out.append(hourly_occupancy(technology, venue, hour, rng))
    return np.array(out)


def occupancy_cdf(samples, grid=None):
    """Empirical CDF of occupancy samples on a [0, 1] grid.

    Returns ``(grid, cdf)`` ready for plotting or table dumps.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    cdf = np.searchsorted(samples, grid, side="right") / len(samples)
    return grid, cdf
