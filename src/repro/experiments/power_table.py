"""§4.8: tag power consumption per component and bandwidth."""

from __future__ import annotations

from repro.experiments.registry import ExperimentResult
from repro.lte.params import SUPPORTED_BANDWIDTHS_MHZ
from repro.tag.power import TagPowerModel


def run(seed=0):
    """Rows: one per bandwidth with the four component powers (uW)."""
    model = TagPowerModel("cots")
    ring = TagPowerModel("ring")
    rows = []
    for bw in SUPPORTED_BANDWIDTHS_MHZ:
        breakdown = model.breakdown(bw)
        rows.append(
            {
                "bandwidth_mhz": float(bw),
                "sync_uw": breakdown.sync_w * 1e6,
                "rf_front_uw": breakdown.rf_front_w * 1e6,
                "baseband_uw": breakdown.baseband_w * 1e6,
                "clock_uw": breakdown.clock_w * 1e6,
                "total_uw": breakdown.total_uw,
                "total_ring_osc_uw": ring.breakdown(bw).total_uw,
            }
        )
    return ExperimentResult(
        name="power",
        description="Tag power consumption (paper §4.8)",
        rows=rows,
        notes=(
            "Anchors: 10 uW comparator, 57 uW switch @20 MHz, 82 uW "
            "baseband, 588 uW @1.92 MHz / 4.5 mW @30.72 MHz COTS clocks; "
            "ring oscillators cut the clock to single-digit uW."
        ),
    )
