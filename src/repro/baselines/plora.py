"""PLoRa-style ambient LoRa backscatter.

PLoRa converts ambient LoRa chirps into shifted chirps at ~280 bps.  The
technique works — but only when there is ambient LoRa traffic, and the
paper's week-long site surveys put LoRa occupancy at ~0.02 with *zero*
usable bursts at the experiment sites, so its measured throughput is 0
throughout the evaluation ("the throughput of LoRa backscatter is always
0 in our experiments", §4.2).
"""

from __future__ import annotations

#: PLoRa's reported raw data rate.
RAW_BIT_RATE_BPS = 284.0

#: Minimum ambient occupancy for the tag to catch whole LoRa frames: a
#: PLoRa packet needs the ambient transmission to overlap its entire
#: payload, which sub-5 % sporadic beacons essentially never provide.
MIN_USABLE_OCCUPANCY = 0.05


class PLoraModel:
    """Occupancy-gated LoRa-backscatter throughput."""

    @staticmethod
    def throughput_bps(occupancy):
        """Correct bits per second given ambient LoRa occupancy."""
        occupancy = float(occupancy)
        if occupancy < MIN_USABLE_OCCUPANCY:
            return 0.0
        return occupancy * RAW_BIT_RATE_BPS
