"""Medium access for multi-tag LScatter deployments.

The paper demonstrates a single tag; any smart-home/city deployment needs
many.  Because every tag derives timing from the same PSS, slot-level
coordination comes for free: this package provides TDMA, slotted-ALOHA
and priority-grant schemes over the tag schedule (run slot by slot by
:class:`repro.fleet.scheduler.FleetScheduler`, the one slot loop) and an
IQ-level two-tag collision simulation that calibrates the capture rule.
"""

from repro.mac.schemes import (
    TdmaScheme,
    SlottedAlohaScheme,
    PriorityScheme,
)
from repro.mac.collision import two_tag_collision

__all__ = [
    "TdmaScheme",
    "SlottedAlohaScheme",
    "PriorityScheme",
    "two_tag_collision",
]
