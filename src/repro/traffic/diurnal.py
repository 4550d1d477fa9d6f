"""Per-venue, per-technology diurnal occupancy profiles.

Each profile is a 24-element mean-occupancy-by-hour array, fitted to the
statistics the paper reports:

* WiFi office is the heaviest (occupancy still < 0.5 for 80 % of the time
  and < 0.7 for 90 %, Fig. 4c); home peaks in the evening (~0.45 around
  4 pm - 9 pm, Fig. 17); classroom peaks during teaching hours; the mall
  peaks around 8 pm at ~0.5 (Fig. 22); outdoor WiFi is sparse (Fig. 27,
  average throughput drops ~2x vs home).
* LoRa occupancy is ~0.02 everywhere (the technique is rarely deployed).
* LTE is 1.0 at every hour in every venue ("covered all the time").

Hour-to-hour realisations jitter around the mean with a Beta distribution
so a week of samples produces the paper's CDF spreads.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng

TECHNOLOGIES = ("wifi", "lora", "lte")
VENUES = ("home", "office", "classroom", "mall", "outdoor")

#: Beta concentration of the hour-to-hour jitter: higher is tighter.
CONCENTRATION = 30.0


def _profile(night, morning, day, evening):
    """Assemble a 24-hour profile from four coarse levels."""
    hours = np.empty(24)
    hours[0:6] = night
    hours[6:10] = morning
    hours[10:16] = day
    hours[16:22] = evening
    hours[22:24] = night
    return hours


_WIFI_PROFILES = {
    "home": _profile(night=0.08, morning=0.24, day=0.32, evening=0.52),
    "office": _profile(night=0.08, morning=0.38, day=0.48, evening=0.25),
    "classroom": _profile(night=0.04, morning=0.30, day=0.38, evening=0.12),
    "mall": _profile(night=0.05, morning=0.20, day=0.35, evening=0.48),
    "outdoor": _profile(night=0.03, morning=0.10, day=0.15, evening=0.18),
}

#: LoRa deployments are rare; a beacon every few minutes at most.
_LORA_OCCUPANCY = 0.02


def occupancy_profile(technology, venue):
    """The 24-hour mean-occupancy array for one (technology, venue)."""
    technology = technology.lower()
    venue = venue.lower()
    if venue not in VENUES:
        raise ValueError(f"unknown venue {venue!r}; choose from {VENUES}")
    if technology == "lte":
        return np.ones(24)
    if technology == "lora":
        return np.full(24, _LORA_OCCUPANCY)
    if technology == "wifi":
        return _WIFI_PROFILES[venue].copy()
    raise ValueError(f"unknown technology {technology!r}")


def hourly_occupancy(technology, venue, hour, rng=None):
    """Draw one realised occupancy for a given hour of day.

    LTE always returns exactly 1.0; other technologies jitter around the
    profile mean with a Beta distribution of concentration
    :data:`CONCENTRATION`.
    """
    technology = technology.lower()
    if technology == "lte":
        return 1.0
    rng = make_rng(rng)
    mean = float(occupancy_profile(technology, venue)[int(hour) % 24])
    mean = min(max(mean, 1e-4), 1.0 - 1e-4)
    a = mean * CONCENTRATION
    b = (1.0 - mean) * CONCENTRATION
    return float(rng.beta(a, b))
