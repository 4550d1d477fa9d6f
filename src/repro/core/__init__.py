"""End-to-end LScatter system: configuration, IQ simulation, link model.

:class:`~repro.core.system.LScatterSystem` wires eNodeB -> channel -> tag
-> channel -> UE at sample level; :mod:`repro.core.link_budget` is the
closed-form goodput/BER model calibrated against it and used for the
long-duration and distance-sweep experiments.
"""

from repro.core.config import SystemConfig
from repro.core.metrics import LinkReport, align_windows
from repro.core.system import AmbientStage, LScatterSystem
from repro.core.link_budget import LScatterLinkModel, LinkPrediction

__all__ = [
    "SystemConfig",
    "LinkReport",
    "align_windows",
    "AmbientStage",
    "LScatterSystem",
    "LScatterLinkModel",
    "LinkPrediction",
]
