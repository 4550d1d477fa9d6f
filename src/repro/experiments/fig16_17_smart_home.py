"""Figs 16/17: smart home over 24 hours — throughput and occupancy.

Campaign-capable: one shard per hour of the day.
"""

from __future__ import annotations

import numpy as np

from repro.channel.link import LinkBudget
from repro.experiments.diurnal_common import (
    hourly_throughput_row,
    occupancy_rows,
)
from repro.experiments.registry import ExperimentResult

#: Hours sampled by the smoke (CI) campaign grid.
SMOKE_HOURS = (0, 8, 12, 18)


def campaign_points(seed=0, smoke=False):
    hours = SMOKE_HOURS if smoke else tuple(range(24))
    return [{"hour": int(h)} for h in hours]


def run_point(params, seed):
    """One hour of the smart-home day (both figures share the row)."""
    return hourly_throughput_row(
        venue_budget=LinkBudget(venue="smart_home"),
        traffic_venue="home",
        hour=params["hour"],
        seed=seed,
        enb_to_tag_ft=3.0,
        tag_to_ue_ft=3.0,
    )


def aggregate_fig16(rows, seed=0):
    rows = list(rows)
    wifi_avg = float(np.mean([r["wifi_bs_kbps_median"] for r in rows]))
    lte_avg = float(np.mean([r["lscatter_mbps_median"] for r in rows]))
    return ExperimentResult(
        name="fig16",
        description="Smart home 24 h throughput (WiFi backscatter vs LScatter)",
        rows=rows,
        notes=(
            f"average WiFi backscatter {wifi_avg:.1f} kbps vs LScatter "
            f"{lte_avg:.2f} Mbps -> {lte_avg * 1e3 / max(wifi_avg, 1e-9):.0f}x "
            "(paper: 37 kbps vs 13.63 Mbps = 368x)"
        ),
    )


def aggregate_fig17(rows, seed=0):
    return ExperimentResult(
        name="fig17",
        description="Smart home 24 h traffic occupancy (WiFi vs LTE)",
        rows=occupancy_rows(rows),
        notes="LTE stays at 1.0 through the night; WiFi peaks in the evening.",
    )
