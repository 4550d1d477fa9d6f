"""Figs 21/22: shopping mall, 10 am - 9 pm — throughput and occupancy.

Campaign-capable: one shard per mall opening hour.
"""

from __future__ import annotations

from repro.channel.link import LinkBudget
from repro.experiments.diurnal_common import (
    hourly_throughput_row,
    occupancy_rows,
)
from repro.experiments.registry import ExperimentResult

#: Mall opening hours sampled by the paper.
MALL_HOURS = range(10, 22)

#: Hours sampled by the smoke (CI) campaign grid.
SMOKE_HOURS = (10, 15, 20)


def campaign_points(seed=0, smoke=False):
    hours = SMOKE_HOURS if smoke else tuple(MALL_HOURS)
    return [{"hour": int(h)} for h in hours]


def run_point(params, seed):
    """One hour of the mall day (both figures share the row)."""
    return hourly_throughput_row(
        venue_budget=LinkBudget(venue="shopping_mall"),
        traffic_venue="mall",
        hour=params["hour"],
        seed=seed,
        enb_to_tag_ft=5.0,
        tag_to_ue_ft=10.0,
    )


def aggregate_fig21(rows, seed=0):
    rows = list(rows)
    spread = [r["lscatter_mbps_p75"] - r["lscatter_mbps_p25"] for r in rows]
    return ExperimentResult(
        name="fig21",
        description="Shopping mall 10am-9pm throughput",
        rows=rows,
        notes=(
            f"LScatter interquartile spread <= {max(spread):.2f} Mbps (flat "
            "boxes); WiFi backscatter peaks around 8 pm."
        ),
    )


def aggregate_fig22(rows, seed=0):
    return ExperimentResult(
        name="fig22",
        description="Shopping mall traffic occupancy (WiFi vs LTE)",
        rows=occupancy_rows(rows),
        notes="WiFi occupancy approaches ~0.5 around 8 pm; LTE pegged at 1.0.",
    )
