"""Fig. 19: throughput matrix over eNodeB-to-tag x tag-to-UE distances.

Campaign-capable: the eNodeB-to-tag axis is the shard grid — each point
is one matrix row (the inner tag-to-UE sweep stays inside the point), so
``repro campaign fig19 --shards N`` reproduces the monolithic matrix
bit-for-bit from any shard partition.
"""

from __future__ import annotations

from repro.channel.link import LinkBudget
from repro.core.link_budget import LScatterLinkModel
from repro.experiments.registry import ExperimentResult

#: Grid of the paper's matrix (feet).
DISTANCES_FT = (1, 5, 10, 15, 20, 25)

#: The figure's 20 MHz cell.  Each point carries it and ``run_point``
#: reads it there, so a checkpoint's params name the bandwidth it ran at.
BANDWIDTH_MHZ = 20.0


def campaign_points(seed=0, smoke=False):
    """One point per eNodeB-to-tag distance (smoke: the first two)."""
    grid = DISTANCES_FT[:2] if smoke else DISTANCES_FT
    return [{"enb_to_tag_ft": d1, "bandwidth_mhz": BANDWIDTH_MHZ} for d1 in grid]


def run_point(params, seed):
    """One matrix row: throughput at every tag-to-UE distance."""
    model = LScatterLinkModel(
        params["bandwidth_mhz"], LinkBudget(venue="smart_home")
    )
    d1 = params["enb_to_tag_ft"]
    row = {"enb_to_tag_ft": d1}
    for d2 in DISTANCES_FT:
        prediction = model.predict(d1, d2)
        row[f"ue@{d2}ft_mbps"] = prediction.throughput_bps / 1e6
    row["sync_availability"] = model.sync_availability(d1)
    return row


def aggregate(rows, seed=0):
    """Assemble the matrix rows into the figure's result."""
    return ExperimentResult(
        name="fig19",
        description="Throughput vs eNodeB-to-tag and tag-to-UE distance",
        rows=list(rows),
        notes=(
            "Within 15 ft of the eNodeB the link holds 4-13 Mbps; beyond "
            "that the tag's envelope sync availability collapses (paper: "
            "'if the tag is too far away from both, throughput drops quickly')."
        ),
    )
