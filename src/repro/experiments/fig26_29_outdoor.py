"""Figs 26-29: outdoor street-level experiments at 10 dBm.

26a/b: 24 h throughput; 27: occupancy; 28: throughput vs distance;
29: BER vs distance (LScatter/symbol-LTE stay <1% to ~200 ft; the WiFi
arm's BER shoots up past ~120 ft).

Campaign-capable: Figs 26/27 shard over hours, Figs 28/29 over the
tag-to-UE distance grid.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import SymbolLteModel, WifiBackscatterModel
from repro.baselines.freerider import WIFI_CARRIER_HZ, WIFI_SYSTEM_GAIN_DB
from repro.channel.link import LinkBudget
from repro.core.link_budget import LScatterLinkModel
from repro.experiments.diurnal_common import (
    hourly_throughput_row,
    occupancy_rows,
)
from repro.experiments.registry import ExperimentResult

#: Sweep grid for Figs 28/29 (feet, up to 320).
DISTANCES_FT = (20, 50, 80, 120, 160, 200, 250, 300)

ENB_TO_TAG_FT = 5.0

#: Smoke (CI) campaign grids.
SMOKE_HOURS = (0, 8, 12, 18)
SMOKE_DISTANCES_FT = (20, 120)


# -- diurnal points (Figs 26/27) ------------------------------------------------


def _diurnal_points(seed=0, smoke=False):
    hours = SMOKE_HOURS if smoke else tuple(range(24))
    return [{"hour": int(h)} for h in hours]


def _diurnal_point(params, seed):
    return hourly_throughput_row(
        venue_budget=LinkBudget(venue="outdoor"),
        traffic_venue="outdoor",
        hour=params["hour"],
        seed=seed,
        enb_to_tag_ft=5.0,
        tag_to_ue_ft=15.0,
    )


campaign_points_fig26 = _diurnal_points
campaign_points_fig27 = _diurnal_points
run_point_fig26 = _diurnal_point
run_point_fig27 = _diurnal_point


def aggregate_fig26(rows, seed=0):
    rows = list(rows)
    wifi_avg = float(np.mean([r["wifi_bs_kbps_median"] for r in rows]))
    return ExperimentResult(
        name="fig26",
        description="Outdoor 24 h throughput (10 dBm)",
        rows=rows,
        notes=(
            f"average WiFi backscatter {wifi_avg:.1f} kbps (paper: 16.9 kbps "
            "— thinner outdoor WiFi); LScatter stays at its full rate."
        ),
    )


def aggregate_fig27(rows, seed=0):
    return ExperimentResult(
        name="fig27",
        description="Outdoor traffic occupancy (WiFi vs LTE)",
        rows=occupancy_rows(rows),
    )


# -- distance points (Figs 28/29) -----------------------------------------------


def _distance_models():
    budget = LinkBudget(venue="outdoor")
    wifi_budget = LinkBudget(
        tx_power_dbm=15.0,
        carrier_hz=WIFI_CARRIER_HZ,
        venue="outdoor",
        system_gain_db=WIFI_SYSTEM_GAIN_DB,
    )
    return (
        LScatterLinkModel(20.0, budget),
        SymbolLteModel(budget=budget),
        WifiBackscatterModel(budget=wifi_budget),
    )


def _distance_points(seed=0, smoke=False):
    grid = SMOKE_DISTANCES_FT if smoke else DISTANCES_FT
    return [{"distance_ft": int(d)} for d in grid]


campaign_points_fig28 = _distance_points
campaign_points_fig29 = _distance_points


def run_point_fig28(params, seed):
    lscatter, symbol_lte, wifi = _distance_models()
    d = params["distance_ft"]
    return {
        "distance_ft": d,
        "wifi_backscatter_mbps": wifi.throughput_bps(0.9, ENB_TO_TAG_FT, d)
        / 1e6,
        "symbol_lte_mbps": symbol_lte.throughput_bps(ENB_TO_TAG_FT, d) / 1e6,
        "lscatter_mbps": lscatter.predict(ENB_TO_TAG_FT, d).throughput_bps
        / 1e6,
    }


def run_point_fig29(params, seed):
    lscatter, symbol_lte, wifi = _distance_models()
    d = params["distance_ft"]
    return {
        "distance_ft": d,
        "wifi_backscatter_ber": wifi.ber(ENB_TO_TAG_FT, d),
        "symbol_lte_ber": symbol_lte.ber(ENB_TO_TAG_FT, d),
        "lscatter_ber": lscatter.ber(ENB_TO_TAG_FT, d),
    }


def aggregate_fig28(rows, seed=0):
    return ExperimentResult(
        name="fig28",
        description="Outdoor throughput vs distance (10 dBm)",
        rows=list(rows),
        notes="Open space: higher throughput at equal distance than the mall.",
    )


def aggregate_fig29(rows, seed=0):
    lscatter, _, _ = _distance_models()
    ls200 = lscatter.ber(ENB_TO_TAG_FT, 200)
    return ExperimentResult(
        name="fig29",
        description="Outdoor BER vs distance (10 dBm)",
        rows=list(rows),
        notes=(
            f"LScatter BER at 200 ft: {ls200:.1e} (paper: LTE arms <1% to "
            "200 ft; WiFi arm rises sharply past 120 ft)."
        ),
    )
