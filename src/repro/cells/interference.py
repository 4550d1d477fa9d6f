"""Inter-cell interference: sum neighbour downlinks into the serving capture.

The tag rides its serving cell, but every co-channel neighbour's downlink
arrives too, scaled by its own pathloss.  This module builds the combined
ambient the per-tag stage consumes: the *unit* waveform (what the tag's
envelope circuit and the UE's antennas see) is the serving cell's
unit-power capture plus each neighbour's capture at its relative
amplitude, while the *reference* (what genie-mode demodulation divides
by) stays the clean serving capture — interference therefore degrades
sync and demodulation exactly as it would on air.

Neighbour captures are rolled by a deterministic per-cell timing offset:
real eNodeBs are not frame-synchronous, so a neighbour's PSS must not sit
on top of the serving cell's.  The offset is a pure function of the cell
id, keeping every run bit-identical at any worker count.

:class:`CellAmbient` is the picklable recipe: it carries the serving
ambient plus ``(neighbour, amplitude, offset)`` entries — each either an
in-memory :class:`~repro.core.system.AmbientStage` (serial) or a
memory-mapped :class:`~repro.fleet.ambient.AmbientHandle` (workers) —
and superposes them on :meth:`CellAmbient.load` in ascending cell-id
order, so serial and pooled executions perform the identical float ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cells.site import BANDWIDTH_MHZ
from repro.core.system import AmbientStage
from repro.lte.params import LteParams
from repro.lte.transmitter import LteCapture
from repro.obs.trace import span
from repro.utils.units import db_to_linear

#: Multiplier scattering per-cell timing offsets across the frame (prime,
#: so consecutive cell ids land far apart).
_OFFSET_STRIDE = 7919


def timing_offset_samples(cell_id, samples_per_frame):
    """Deterministic frame-timing offset of a cell, in samples."""
    return (int(cell_id) * _OFFSET_STRIDE) % int(samples_per_frame)


#: Stride for intra-cell ghost-tag offsets (a different prime than the
#: inter-cell one, so ghost tags never alias onto neighbour-cell timing).
_GHOST_STRIDE = 5077


def ghost_tag_offsets(n_ghosts, samples_per_frame):
    """Deterministic sample offsets for ``n_ghosts`` co-channel ghost tags.

    Intra-cell tag-to-tag interference (the :mod:`repro.stress` tag-mob
    scenario) places each ghost's chip stream at a distinct, reproducible
    offset inside the frame; the 1-based stride keeps ghost 0 off the
    real tag's own timing.
    """
    period = int(samples_per_frame)
    return [((g + 1) * _GHOST_STRIDE) % period for g in range(int(n_ghosts))]


def relative_amplitude_db(topology, serving_site, neighbour_site, x_ft, y_ft):
    """Neighbour downlink power at a point, relative to the serving cell."""
    return topology.rx_dbm_at(neighbour_site, x_ft, y_ft) - topology.rx_dbm_at(
        serving_site, x_ft, y_ft
    )


@dataclass(frozen=True)
class NeighbourRecipe:
    """One interfering cell's contribution to a tag's combined ambient."""

    cell_id: int
    #: AmbientStage (serial) or AmbientHandle (worker processes).
    ambient: object
    #: Linear amplitude relative to the serving cell's unit waveform.
    amplitude: float
    offset_samples: int


def neighbour_recipes(topology, serving_site, x_ft, y_ft, ambients):
    """Build the interferer list for a tag at ``(x_ft, y_ft)``.

    ``ambients`` maps cell id -> stage or handle (from
    :meth:`~repro.cells.topology.Topology.prepare_ambients`).  Every
    neighbour interferes.  The returned list is sorted by cell id, which
    fixes the superposition order.
    """
    entries = []
    for site in topology.neighbours_of(serving_site.cell_id):
        rel_db = relative_amplitude_db(topology, serving_site, site, x_ft, y_ft)
        entries.append((site.cell_id, float(np.sqrt(db_to_linear(rel_db)))))
    samples_per_frame = LteParams.from_bandwidth(BANDWIDTH_MHZ).samples_per_frame
    return [
        NeighbourRecipe(
            cell_id=cell_id,
            ambient=ambients[cell_id],
            amplitude=amplitude,
            offset_samples=timing_offset_samples(cell_id, samples_per_frame),
        )
        for cell_id, amplitude in sorted(entries)
    ]


@dataclass
class CellAmbient:
    """Picklable combined-ambient recipe for one tag on one serving cell."""

    serving: object
    neighbours: list = field(default_factory=list)

    @staticmethod
    def _stage(ambient):
        return ambient.load() if hasattr(ambient, "load") else ambient

    def load(self):
        """Superpose the neighbourhood; returns an :class:`AmbientStage`.

        The returned stage's ``unit`` is the interfered waveform; its
        ``capture`` keeps the *clean* serving samples so genie references
        and ground truth stay interference-free.
        """
        serving = self._stage(self.serving)
        if not self.neighbours:
            return serving
        with span("cells.interference") as sp:
            combined = np.array(serving.unit, dtype=complex, copy=True)
            for recipe in sorted(self.neighbours, key=lambda r: r.cell_id):
                stage = self._stage(recipe.ambient)
                if len(stage.unit) != len(combined):
                    raise ValueError(
                        f"cell {recipe.cell_id} capture has {len(stage.unit)} "
                        f"samples but the serving capture has {len(combined)}; "
                        "superposition requires equal-length captures "
                        "(the same n_frames across the topology)"
                    )
                combined += recipe.amplitude * np.roll(
                    stage.unit, recipe.offset_samples
                )
            sp.set(n_neighbours=len(self.neighbours))
        capture = LteCapture(
            params=serving.capture.params,
            cell=serving.capture.cell,
            samples=serving.unit,
            frames=serving.capture.frames,
        )
        return AmbientStage(capture=capture, unit=combined)
