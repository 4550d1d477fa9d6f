"""Symbol-level LTE backscatter: the paper's granularity strawman.

Applies the WiFi backscatters' symbol-level technique to LTE: one bit per
two 71.4 us LTE symbols, i.e. a 7 kbps ceiling — three orders of magnitude
under LScatter's basic-timing-unit modulation (paper challenge C2 and the
"Symbol Level LTE Backscatter" arm of Figs 23/24/28/29).  Its integration
over ~2200 samples per bit buys ~33 dB of processing gain, so it reaches
much farther than WiFi backscatter (600 MHz carrier + long symbols),
which is exactly the Fig. 23 crossover at ~80 ft.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.link import LinkBudget
from repro.core.link_budget import TAG_SENSITIVITY_DBM, rayleigh_bpsk_ber
from repro.lte.params import LteParams

#: LTE symbols per backscatter bit.
SYMBOLS_PER_BIT = 2

#: Raw rate: 14 symbols/ms -> 7 kbps.
RAW_BIT_RATE_BPS = 14_000.0 / SYMBOLS_PER_BIT

#: The modelled carrier (MHz).
BANDWIDTH_MHZ = 20.0


class SymbolLevelLteTag:
    """IQ-level symbol-granularity tag (for the granularity ablation).

    Flips the reflection phase over whole LTE symbols, differentially,
    skipping the sync slots like the LScatter controller does.
    """

    def __init__(self, params):
        self.params = (
            params if isinstance(params, LteParams) else LteParams.from_bandwidth(params)
        )

    def modulate(self, ambient, bits):
        """Embed bits at one per two symbols; returns (hybrid, bits_used)."""
        samples = np.array(ambient, dtype=complex)
        bits = np.asarray(bits, dtype=np.int8)
        params = self.params
        half = params.samples_per_frame // 2
        phase = 1.0
        used = 0
        start = 0
        while start + half <= len(samples) and used < len(bits):
            for slot in range(10):
                last = 5 if slot == 0 else 7
                sym = 0
                while sym + SYMBOLS_PER_BIT <= last and used < len(bits):
                    if bits[used]:
                        phase = -phase
                    lo = start + params.symbol_start(slot, sym)
                    hi = start + params.symbol_start(slot, sym + SYMBOLS_PER_BIT - 1)
                    hi += params.symbol_length(sym + SYMBOLS_PER_BIT - 1)
                    samples[lo:hi] *= phase
                    used += 1
                    sym += SYMBOLS_PER_BIT
            start += half
        return samples, used


@dataclass
class SymbolLteModel:
    """Throughput/BER model for symbol-level LTE backscatter."""

    budget: LinkBudget = field(default_factory=LinkBudget)

    def __post_init__(self):
        self.params = LteParams.from_bandwidth(BANDWIDTH_MHZ)

    @property
    def processing_gain(self):
        """Coherent integration over a whole symbol's chips."""
        return float(self.params.n_subcarriers)

    def ber(self, enb_to_tag_ft, tag_to_ue_ft):
        snr_db = self.budget.backscatter_snr_db(
            enb_to_tag_ft, tag_to_ue_ft, self.params.sample_rate_hz
        )
        snr = 10.0 ** (snr_db / 10.0) * self.processing_gain
        return float(np.clip(rayleigh_bpsk_ber(snr) + 5e-5, 0.0, 0.5))

    def sync_availability(self, enb_to_tag_ft):
        """Same envelope-detector gate as LScatter (same tag front end)."""
        from scipy.stats import norm

        loss = self.budget.pathloss.loss_db_feet(
            enb_to_tag_ft, self.budget.carrier_hz
        )
        incident = (
            self.budget.tx_power_dbm - loss + self.budget.system_gain_db / 2.0
        )
        sigma = max(self.budget.pathloss.shadowing_db, 2.0)
        return float(norm.cdf((incident - TAG_SENSITIVITY_DBM) / sigma))

    def throughput_bps(self, enb_to_tag_ft, tag_to_ue_ft):
        ber = self.ber(enb_to_tag_ft, tag_to_ue_ft)
        availability = self.sync_availability(enb_to_tag_ft)
        return availability * RAW_BIT_RATE_BPS * (1.0 - ber)
