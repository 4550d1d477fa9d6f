"""WiFi backscatter baseline (FreeRider-style codeword translation).

The tag flips the phase of *entire* OFDM symbols: one backscatter bit per
two WiFi symbols (8 us/bit -> 125 kbps ceiling), encoded differentially so
the receiver needs only relative symbol phases.

:class:`WifiBackscatterModel` is the occupancy-gated throughput model the
24 h and distance experiments use.  Its link budget carries a large
calibrated system gain — like the paper's enhanced baseline, whose tag
was triggered by a USRP X300 detector — chosen so the baseline matches
FreeRider's published operating points; the gain is then held fixed
across every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.link import LinkBudget
from repro.core.link_budget import rayleigh_bpsk_ber
from repro.wifi.params import SYMBOL_SAMPLES, SYMBOL_SECONDS

#: WiFi carrier (channel 6).
WIFI_CARRIER_HZ = 2.437e9

#: Symbols per backscatter bit (codeword translation granularity).
SYMBOLS_PER_BIT = 2

#: Raw backscatter bit rate on a continuously present WiFi signal.
RAW_BIT_RATE_BPS = 1.0 / (SYMBOLS_PER_BIT * SYMBOL_SECONDS)

#: Backscatter bits carried per hybrid WiFi packet (typical 1500 B frame).
BITS_PER_PACKET = 500

#: Calibrated aggregate gain of the enhanced baseline's testbed (see
#: module docstring), set so the WiFi arm reproduces FreeRider's published
#: operating points: ~0.1 Mbps at 10 ft, the ~80 ft crossover against
#: symbol-level LTE backscatter (paper Fig. 23), and the sharp BER rise
#: past ~120 ft (Figs 24/29).
WIFI_SYSTEM_GAIN_DB = 17.0

#: The 802.11g channel the backscatter rides.
BANDWIDTH_HZ = 20e6


@dataclass
class WifiBackscatterModel:
    """Occupancy-gated throughput/BER model for the WiFi baseline."""

    budget: LinkBudget = field(
        default_factory=lambda: LinkBudget(
            tx_power_dbm=15.0,
            carrier_hz=WIFI_CARRIER_HZ,
            venue="shopping_mall",
            system_gain_db=WIFI_SYSTEM_GAIN_DB,
        )
    )

    def snr_db(self, ap_to_tag_ft, tag_to_rx_ft):
        return self.budget.backscatter_snr_db(
            ap_to_tag_ft, tag_to_rx_ft, BANDWIDTH_HZ
        )

    def ber(self, ap_to_tag_ft, tag_to_rx_ft):
        """Backscatter bit error rate at one geometry.

        Symbol-level modulation integrates over a whole OFDM symbol, so
        unlike LScatter's per-sample chips the effective SNR carries a
        processing gain of the symbol length (80 samples) and the Rayleigh
        chip-energy penalty averages out to AWGN-like behaviour; we keep
        the Rayleigh form on the *packet* channel fading instead.
        """
        snr = 10.0 ** (self.snr_db(ap_to_tag_ft, tag_to_rx_ft) / 10.0)
        return float(np.clip(rayleigh_bpsk_ber(snr * SYMBOL_SAMPLES) + 1e-5, 0, 0.5))

    def packet_success(self, ap_to_tag_ft, tag_to_rx_ft):
        """Probability a hybrid packet decodes (all bits must survive)."""
        ber = self.ber(ap_to_tag_ft, tag_to_rx_ft)
        return float((1.0 - ber) ** BITS_PER_PACKET)

    def throughput_bps(self, occupancy, ap_to_tag_ft=5.0, tag_to_rx_ft=10.0):
        """Correct backscatter bits per second at a given traffic occupancy."""
        success = self.packet_success(ap_to_tag_ft, tag_to_rx_ft)
        return float(occupancy) * RAW_BIT_RATE_BPS * success
