"""Multi-cell network simulation: topology, attach, interference, handover."""

from repro.cells.attach import (
    AttachCandidate,
    AttachDecision,
    attach,
    rank_cells,
    search_attach,
)
from repro.cells.handover import (
    HandoverEvent,
    HandoverPolicy,
    HandoverTrace,
    simulate_handover,
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
    "HandoverEvent",
    "HandoverPolicy",
    "HandoverTrace",
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
    "simulate_handover",
    "timing_offset_samples",
]
