"""Multi-tag smart-home telemetry over LScatter.

The deployment §1 motivates: many sensor tags share one ambient LTE
carrier.  Because every tag synchronises to the same PSS, slots can be
assigned round-robin without any coordination channel — tag ``i``
modulates only the slots where ``slot_index mod n_tags == i``.  The
network model accounts for per-tag link quality and reports per-sensor
delivery statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channel.link import LinkBudget
from repro.core.link_budget import LScatterLinkModel
from repro.utils.rng import make_rng

#: Slots (packets) per second under the tag schedule: 2 per half-frame
#: boundary x 10 slots = 200/s.
PACKETS_PER_SECOND = 200.0


@dataclass
class SensorTag:
    """One telemetry tag's geometry and payload size."""

    name: str
    enb_to_tag_ft: float
    tag_to_ue_ft: float
    reading_bits: int = 64


@dataclass
class SensingReport:
    """Delivery statistics for one simulated period."""

    per_tag_delivery: dict = field(default_factory=dict)
    per_tag_readings_per_s: dict = field(default_factory=dict)
    aggregate_readings_per_s: float = 0.0


class SensorNetwork:
    """Round-robin slot sharing among LScatter sensor tags."""

    def __init__(self, tags, bandwidth_mhz=20.0, venue="smart_home", rng=None):
        if not tags:
            raise ValueError("need at least one tag")
        self.tags = list(tags)
        self.model = LScatterLinkModel(bandwidth_mhz, LinkBudget(venue=venue))
        self.rng = make_rng(rng)

    def packet_success(self, tag):
        """P(one slot's packet delivers all its readings error-free)."""
        prediction = self.model.predict(tag.enb_to_tag_ft, tag.tag_to_ue_ft)
        # A slot carries many readings; a reading survives if its own bits
        # do.  Success probability is per reading.
        return prediction.sync_availability * (1.0 - prediction.ber) ** tag.reading_bits

    def run(self, duration_s=10.0):
        """Simulate ``duration_s`` of round-robin telemetry."""
        n_tags = len(self.tags)
        slots_per_tag = PACKETS_PER_SECOND * duration_s / n_tags
        report = SensingReport()
        total = 0.0
        for tag in self.tags:
            p = self.packet_success(tag)
            delivered = self.rng.binomial(int(slots_per_tag), p)
            per_second = delivered / duration_s
            report.per_tag_delivery[tag.name] = p
            report.per_tag_readings_per_s[tag.name] = per_second
            total += per_second
        report.aggregate_readings_per_s = total
        return report
