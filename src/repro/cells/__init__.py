"""Multi-cell network simulation: topology, attach, interference."""

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
