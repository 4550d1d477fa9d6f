"""Multi-cell network simulation: topology, attach, interference.

Every cell transmits one fixed numerology, the 1.4 MHz carrier
(:data:`repro.cells.site.BANDWIDTH_MHZ`) at
:data:`~repro.cells.site.TX_POWER_DBM`, and every topology sits in one
venue (:data:`repro.cells.topology.VENUE`) on the link budget's default
carrier (:data:`repro.channel.link.DEFAULT_CARRIER_HZ`), so a layout is
its geometry and frame count alone.
"""

from repro.cells.attach import (
    AttachCandidate,
    AttachDecision,
    attach,
    rank_cells,
    search_attach,
)
from repro.cells.interference import (
    CellAmbient,
    NeighbourRecipe,
    neighbour_recipes,
    relative_amplitude_db,
    timing_offset_samples,
)
from repro.cells.network import (
    NetworkDeployment,
    NetworkReport,
    NetworkRunner,
    NetworkTag,
)
from repro.cells.site import CellSite
from repro.cells.topology import Topology, ambient_seed

__all__ = [
    "AttachCandidate",
    "AttachDecision",
    "CellAmbient",
    "CellSite",
    "NeighbourRecipe",
    "NetworkDeployment",
    "NetworkReport",
    "NetworkRunner",
    "NetworkTag",
    "Topology",
    "ambient_seed",
    "attach",
    "neighbour_recipes",
    "rank_cells",
    "relative_amplitude_db",
    "search_attach",
    "timing_offset_samples",
]
