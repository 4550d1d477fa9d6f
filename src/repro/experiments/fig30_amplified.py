"""Fig. 30: maximum tag-to-UE distance vs eNodeB-to-tag distance at 40 dBm.

Uses the ``outdoor_street`` venue (log-distance + linear clutter
absorption) calibrated to the figure's two endpoints — 320 ft of
tag-to-UE range when the tag is 2 ft from the eNodeB, ~160 ft at 24 ft —
then predicts the rest of the curve.
"""

from __future__ import annotations

from repro.channel.link import LinkBudget
from repro.core.link_budget import LScatterLinkModel
from repro.experiments.registry import ExperimentResult

#: eNodeB-to-tag anchor points (feet) from the paper's figure.
ENB_TO_TAG_FT = (2, 8, 16, 24, 32, 40)

#: Usable-link criterion: where BER exceeds this, the paper's testbed
#: stopped logging the link as working.
BER_TARGET = 3e-3

#: The figure's 20 MHz cell.
BANDWIDTH_MHZ = 20.0


def run(seed=0):
    """Maximum workable tag-to-UE range per eNodeB-to-tag distance."""
    model = LScatterLinkModel(
        BANDWIDTH_MHZ,
        LinkBudget(venue="outdoor_street", tx_power_dbm=40.0),
    )
    rows = []
    for d1 in ENB_TO_TAG_FT:
        rows.append(
            {
                "enb_to_tag_ft": d1,
                "max_tag_to_ue_ft": model.max_range_ft(d1, ber_target=BER_TARGET),
                "sync_availability": model.sync_availability(d1),
            }
        )
    return ExperimentResult(
        name="fig30",
        description="eNodeB-to-tag vs maximum tag-to-UE distance (40 dBm)",
        rows=rows,
        notes=(
            "Anchors: paper reports 320 ft at 2 ft and 160 ft at 24 ft; the "
            "street-clutter absorption constant is calibrated to those two "
            "points and the rest of the curve is predicted."
        ),
    )
