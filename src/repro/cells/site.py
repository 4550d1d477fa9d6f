"""Cell sites: the eNodeBs of a multi-cell deployment.

A :class:`CellSite` pins down one carrier: its physical cell identity
(which fixes the PSS root and the CRS/scrambling sequences), where it
stands and its capture length.  Every site transmits the 1.4 MHz
numerology (:data:`BANDWIDTH_MHZ`) at :data:`TX_POWER_DBM` with
:class:`~repro.lte.frame.CellConfig`'s default traffic (full-buffer QPSK
PDSCH), so the cells of a topology always superpose sample for sample.
The identity split follows the standard: ``N_ID = 3 * N_ID^(1) +
N_ID^(2)``, so adjacent cells with consecutive ids automatically get
distinct PSS roots — the property real network planners engineer
deliberately and the tag's cell search leans on.

Positions are in feet, matching the paper's distance reporting and the
rest of the channel layer (:mod:`repro.channel.pathloss` converts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import SystemConfig
from repro.lte.frame import CellConfig
from repro.utils.validation import require_whole

#: Transmit power of every cell site (dBm).
TX_POWER_DBM = 10.0

#: LTE bandwidth of every cell site (MHz).
BANDWIDTH_MHZ = 1.4


@dataclass(frozen=True)
class CellSite:
    """One eNodeB of a multi-cell topology."""

    cell_id: int
    x_ft: float
    y_ft: float
    n_frames: int = 4

    def __post_init__(self):
        require_whole("cell_id", self.cell_id, minimum=0)
        if self.cell_id > 503:
            raise ValueError(
                f"cell_id must be a physical cell identity in [0, 503], "
                f"got {self.cell_id}"
            )
        if not (math.isfinite(self.x_ft) and math.isfinite(self.y_ft)):
            raise ValueError(
                f"cell {self.cell_id}: position ({self.x_ft}, {self.y_ft}) ft "
                "must be finite"
            )
        # The cell's own config checks the frame count, so a bad count
        # fails here, not at its first capture.
        try:
            self.ambient_config()
        except ValueError as err:
            raise ValueError(f"cell {self.cell_id}: {err}") from None

    # -- identity ---------------------------------------------------------------

    @property
    def n_id_1(self):
        """SSS group identity N_ID^(1)."""
        return int(self.cell_id) // 3

    @property
    def n_id_2(self):
        """PSS root identity N_ID^(2) — what the tag's search keys on."""
        return int(self.cell_id) % 3

    def cell_config(self):
        """The :class:`CellConfig` this site transmits."""
        return CellConfig(n_id_1=self.n_id_1, n_id_2=self.n_id_2)

    # -- geometry ---------------------------------------------------------------

    def distance_ft(self, x_ft, y_ft):
        """Euclidean distance from this site to a point, in feet."""
        return math.hypot(self.x_ft - float(x_ft), self.y_ft - float(y_ft))

    # -- derived configs --------------------------------------------------------

    def ambient_config(self):
        """A :class:`SystemConfig` sufficient for the ambient stage.

        Only ``(bandwidth, cell, n_frames)`` feed the eNodeB capture, so
        the geometry fields keep their defaults; the per-tag stage builds
        its own config with real distances.
        """
        return SystemConfig(
            bandwidth_mhz=BANDWIDTH_MHZ,
            cell=self.cell_config(),
            tx_power_dbm=TX_POWER_DBM,
            n_frames=self.n_frames,
        )
