"""Closed-form LScatter link model, calibrated against the IQ simulation.

The long-duration experiments (24 h x 3 venues) and the dense distance
sweeps need millions of packets; re-simulating 30.72 Msps IQ for each is
pointless because the per-chip physics is simple and verified by the
sample-level tests:

* the matched-filter soft value for chip ``n`` has SNR proportional to
  ``|x_n|^2`` — and OFDM time samples are complex Gaussian, so the chip
  energy is exponentially distributed.  The resulting bit error rate is
  the classic Rayleigh-faded BPSK expression
  ``Pb = (1 - sqrt(g / (1 + g))) / 2`` with ``g`` the *mean* chip SNR;
* mean chip SNR comes straight from the cascade link budget;
* a small error floor covers residual implementation losses (reference
  reconstruction noise, offset-search misses) observed in the IQ runs.

Throughput follows the tag's schedule: 116 data symbols per 10 ms frame
(9 full packets of 6 data symbols per half-frame plus the 4-symbol packet
in the sync slot), ``n_subcarriers`` chips each — 13.92 Mbps raw at
20 MHz, matching the paper's 13.63 Mbps headline to within 2 %.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.fading import scatter_fraction, venue_k_factor_db
from repro.channel.link import LinkBudget
from repro.lte.params import FRAME_SECONDS, LteParams
from repro.tag.framing import slot_plan

#: Error floor from residual implementation losses (see module docstring).
DEFAULT_BER_FLOOR = 5e-5

#: Upper end of the :meth:`LScatterLinkModel.max_range_ft` bisection (ft).
MAX_RANGE_SEARCH_FT = 2000.0

#: Sensitivity of the tag's passive diode envelope detector (dBm).  Below
#: this incident power the sync circuit cannot find the PSS and the tag
#: never transmits — the mechanism that limits the eNodeB-to-tag range in
#: the paper's Fig. 19 matrix.
TAG_SENSITIVITY_DBM = -32.0


def data_symbols_per_frame():
    """Modulated data symbols in one 10 ms frame under the tag schedule."""
    per_half = sum(len(slot) - 1 for slot in slot_plan())
    return 2 * per_half


def rayleigh_bpsk_ber(mean_snr_linear):
    """BPSK BER with exponentially-distributed chip energy."""
    g = np.maximum(np.asarray(mean_snr_linear, dtype=float), 0.0)
    return (0.5 * (1.0 - np.sqrt(g / (1.0 + g))))[()]


@dataclass(frozen=True)
class LinkPrediction:
    """Closed-form prediction for one geometry."""

    snr_db: float
    ber: float
    raw_bit_rate_bps: float
    sync_availability: float = 1.0

    @property
    def throughput_bps(self):
        """Correctly demodulated bits per second (paper's metric).

        Gated by the fraction of time the tag's envelope circuit can see
        the PSS at all.
        """
        return self.sync_availability * self.raw_bit_rate_bps * (1.0 - self.ber)


class LScatterLinkModel:
    """Predict LScatter BER/throughput from geometry and budget."""

    def __init__(self, bandwidth_mhz=20.0, budget=None, ber_floor=DEFAULT_BER_FLOOR):
        self.params = LteParams.from_bandwidth(bandwidth_mhz)
        self.budget = budget or LinkBudget()
        self.ber_floor = float(ber_floor)

    @property
    def raw_bit_rate_bps(self):
        """Chip rate of the tag schedule (1 bit per chip)."""
        bits_per_frame = data_symbols_per_frame() * self.params.n_subcarriers
        return bits_per_frame / FRAME_SECONDS

    def snr_db(self, enb_to_tag_ft, tag_to_ue_ft, rng=None):
        """Mean chip SNR over the receiver bandwidth (= sample rate)."""
        return self.budget.backscatter_snr_db(
            enb_to_tag_ft, tag_to_ue_ft, self.params.sample_rate_hz, rng
        )

    def _self_interference(self, enb_to_tag_ft, tag_to_ue_ft):
        """Scatter fraction of the *shorter* (un-equalised) hop.

        The dual-model receiver fully equalises the longer hop's
        frequency selectivity but cannot touch the other hop's scatter
        (chip multiplication does not commute with filtering); that
        residual behaves as interference at SIR = 1 / scatter.
        """
        shorter = min(float(enb_to_tag_ft), float(tag_to_ue_ft))
        k_db = venue_k_factor_db(self.budget.venue, shorter)
        return scatter_fraction(k_db)

    def sinr_linear(self, enb_to_tag_ft, tag_to_ue_ft, rng=None):
        """Effective chip SINR: thermal noise plus multipath residual."""
        snr = 10.0 ** (self.snr_db(enb_to_tag_ft, tag_to_ue_ft, rng) / 10.0)
        interference = self._self_interference(enb_to_tag_ft, tag_to_ue_ft)
        return 1.0 / (1.0 / max(snr, 1e-12) + interference)

    def ber(self, enb_to_tag_ft, tag_to_ue_ft):
        """Chip error rate for one geometry."""
        sinr = self.sinr_linear(enb_to_tag_ft, tag_to_ue_ft)
        raw = rayleigh_bpsk_ber(sinr)
        return float(np.clip(raw + self.ber_floor, 0.0, 0.5))

    def tag_incident_dbm(self, enb_to_tag_ft):
        """Power arriving at the tag antenna (one eNodeB->tag pass)."""
        loss = self.budget.pathloss.loss_db_feet(
            enb_to_tag_ft, self.budget.carrier_hz
        )
        return self.budget.tx_power_dbm - loss + self.budget.system_gain_db / 2.0

    def sync_availability(self, enb_to_tag_ft):
        """Probability the envelope circuit detects the PSS at this range.

        Gaussian over log-normal shadowing around the detector threshold.
        """
        from scipy.stats import norm

        sigma = max(self.budget.pathloss.shadowing_db, 2.0)
        margin = self.tag_incident_dbm(enb_to_tag_ft) - TAG_SENSITIVITY_DBM
        return float(norm.cdf(margin / sigma))

    def predict(self, enb_to_tag_ft, tag_to_ue_ft, rng=None):
        """Full prediction for one geometry."""
        snr_db = self.snr_db(enb_to_tag_ft, tag_to_ue_ft, rng)
        sinr = self.sinr_linear(enb_to_tag_ft, tag_to_ue_ft, rng)
        ber = float(np.clip(rayleigh_bpsk_ber(sinr) + self.ber_floor, 0.0, 0.5))
        return LinkPrediction(
            snr_db=float(snr_db),
            ber=ber,
            raw_bit_rate_bps=self.raw_bit_rate_bps,
            sync_availability=self.sync_availability(enb_to_tag_ft),
        )

    def max_range_ft(self, enb_to_tag_ft, ber_target=0.1):
        """Largest tag-to-UE distance keeping BER under ``ber_target``.

        Bisection over distance up to ``MAX_RANGE_SEARCH_FT``; used by the
        Fig. 30 range experiment.
        """
        lo, hi = 0.5, MAX_RANGE_SEARCH_FT
        if self.ber(enb_to_tag_ft, lo) > ber_target:
            return 0.0
        if self.ber(enb_to_tag_ft, hi) <= ber_target:
            return hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.ber(enb_to_tag_ft, mid) <= ber_target:
                lo = mid
            else:
                hi = mid
        return lo
