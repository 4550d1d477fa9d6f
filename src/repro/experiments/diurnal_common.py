"""Shared machinery for the 24 h venue experiments (Figs 16/17, 21/22, 26/27).

Each hour draws from its own deterministic stream
(:func:`repro.utils.rng.stream_rng` keyed on ``(seed, hour)``) rather
than threading one generator through the day — so a diurnal sweep
produces identical rows whether the hours run monolithically, in any
order, or sharded across campaign jobs.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import PLoraModel, WifiBackscatterModel
from repro.baselines.freerider import WIFI_CARRIER_HZ, WIFI_SYSTEM_GAIN_DB
from repro.channel.link import LinkBudget
from repro.core.link_budget import LScatterLinkModel
from repro.traffic import hourly_occupancy
from repro.utils.rng import stream_rng

#: Independent throughput samples per hour (the paper's box plots).
SAMPLES_PER_HOUR = 24

#: LScatter rides a 20 MHz carrier in every venue's day.
BANDWIDTH_MHZ = 20.0


def hourly_throughput_row(
    venue_budget,
    traffic_venue,
    hour,
    seed,
    enb_to_tag_ft=5.0,
    tag_to_ue_ft=8.0,
):
    """One hour's throughput distributions for LScatter and the baselines.

    Pure in ``(hour, seed)``: the hour's samples come from the
    ``(seed, hour)`` stream, independent of every other hour.  Returns a
    row with median/quartiles for WiFi backscatter (kbps) and LScatter
    (Mbps) plus the underlying occupancies.
    """
    rng = stream_rng(seed, int(hour))
    lscatter = LScatterLinkModel(BANDWIDTH_MHZ, venue_budget)
    wifi = WifiBackscatterModel(
        budget=LinkBudget(
            tx_power_dbm=15.0,
            carrier_hz=WIFI_CARRIER_HZ,
            venue=venue_budget.venue,
            system_gain_db=WIFI_SYSTEM_GAIN_DB,
        )
    )
    plora = PLoraModel()

    wifi_samples = []
    lte_samples = []
    wifi_occs = []
    for _ in range(SAMPLES_PER_HOUR):
        wifi_occ = hourly_occupancy("wifi", traffic_venue, hour, rng)
        wifi_occs.append(wifi_occ)
        wifi_samples.append(
            wifi.throughput_bps(wifi_occ, enb_to_tag_ft, tag_to_ue_ft)
        )
        # LScatter jitters with shadowing only; LTE occupancy is 1.
        prediction = lscatter.predict(enb_to_tag_ft, tag_to_ue_ft, rng=rng)
        lte_samples.append(prediction.throughput_bps)
    lora_occ = hourly_occupancy("lora", traffic_venue, hour, rng)
    wifi_samples = np.asarray(wifi_samples)
    lte_samples = np.asarray(lte_samples)
    return {
        "hour": int(hour),
        "wifi_bs_kbps_p25": float(np.percentile(wifi_samples, 25) / 1e3),
        "wifi_bs_kbps_median": float(np.median(wifi_samples) / 1e3),
        "wifi_bs_kbps_p75": float(np.percentile(wifi_samples, 75) / 1e3),
        "lscatter_mbps_p25": float(np.percentile(lte_samples, 25) / 1e6),
        "lscatter_mbps_median": float(np.median(lte_samples) / 1e6),
        "lscatter_mbps_p75": float(np.percentile(lte_samples, 75) / 1e6),
        "plora_bps": float(plora.throughput_bps(lora_occ)),
        "wifi_occupancy": float(np.mean(wifi_occs)),
        "lte_occupancy": 1.0,
    }


def occupancy_rows(rows):
    """Project the occupancy columns out of diurnal throughput rows."""
    return [
        {
            "hour": r["hour"],
            "wifi_occupancy": r["wifi_occupancy"],
            "lte_occupancy": r["lte_occupancy"],
        }
        for r in rows
    ]
