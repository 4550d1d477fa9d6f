"""Network layouts: where the cells stand and what each emits.

A :class:`Topology` is an ordered set of :class:`~repro.cells.site.CellSite`\\ s
sharing one venue and carrier.  Layout constructors cover the common
planning shapes — a hexagonal cluster (the classic 7-cell reuse pattern),
a rectangular grid, or an explicit site list — and the class provides the
deterministic geometry/ radio queries everything downstream uses: received
power and SNR of any cell at any point, neighbour enumeration, and the
per-cell ambient captures generated once through
:class:`~repro.fleet.ambient.AmbientCache` (keyed on cell ID, so two cells
with otherwise identical parameters never collide).

Superposing cells requires equal-length captures, so a topology enforces
uniform bandwidth and frame count across its sites at construction time
with an error naming the offender.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.channel.link import DEFAULT_CARRIER_HZ, LinkBudget
from repro.cells.site import TX_POWER_DBM, CellSite
from repro.utils.validation import require_finite, require_whole
from repro.obs.trace import span
from repro.utils.rng import stream_rng

#: Hexagonal neighbour directions (unit inter-site steps).
_HEX_ANGLES_DEG = (0, 60, 120, 180, 240, 300)


def ambient_seed(seed, cell_id):
    """Deterministic per-cell transmitter seed.

    Derived through a keyed stream so every cell carries independent
    payload traffic while the whole topology stays reproducible from one
    run seed — regardless of generation order or sharding.
    """
    return int(stream_rng(seed, "cells.ambient", int(cell_id)).integers(0, 2**31 - 1))


@dataclass
class Topology:
    """An ordered multi-cell layout over one venue."""

    sites: list = field(default_factory=list)
    venue: str = "smart_home"
    carrier_hz: float = DEFAULT_CARRIER_HZ

    def __post_init__(self):
        if not self.sites:
            raise ValueError("a topology needs at least one cell site")
        seen_ids = {}
        seen_pos = {}
        for site in self.sites:
            if site.cell_id in seen_ids:
                raise ValueError(
                    f"duplicate cell_id {site.cell_id}: two sites share one "
                    "physical cell identity; give every site a distinct id"
                )
            seen_ids[site.cell_id] = site
            pos = (site.x_ft, site.y_ft)
            if pos in seen_pos:
                raise ValueError(
                    f"cells {seen_pos[pos]} and {site.cell_id} are co-located "
                    f"at {pos} ft; move one of them"
                )
            seen_pos[pos] = site.cell_id
        #: The :class:`LinkBudget` every site shares.  A bad venue or
        #: carrier fails here, naming the field, not at the first radio
        #: query.
        self.budget = LinkBudget(
            tx_power_dbm=TX_POWER_DBM,
            carrier_hz=self.carrier_hz,
            venue=self.venue,
        )
        first = self.sites[0]
        for site in self.sites[1:]:
            if site.bandwidth_mhz != first.bandwidth_mhz:
                raise ValueError(
                    f"cell {site.cell_id} uses {site.bandwidth_mhz} MHz but "
                    f"cell {first.cell_id} uses {first.bandwidth_mhz} MHz; "
                    "superposition requires one bandwidth per topology"
                )
            if site.n_frames != first.n_frames:
                raise ValueError(
                    f"cell {site.cell_id} transmits {site.n_frames} frame(s) "
                    f"but cell {first.cell_id} transmits {first.n_frames}; "
                    "captures must be equal length to superpose"
                )
        self._by_id = seen_ids

    # -- constructors -----------------------------------------------------------

    @classmethod
    def hex_cluster(cls, inter_site_ft=300.0, rings=1, **site_kwargs):
        """The classic hexagonal cluster: a centre cell plus ``rings`` rings.

        ``rings=1`` gives the 7-cell pattern.  Cell ids are assigned
        consecutively from 0 (centre first, then ring by ring), so
        neighbouring cells automatically rotate through the three PSS
        roots.
        """
        require_finite("inter_site_ft", inter_site_ft, above=0.0)
        require_whole("rings", rings, minimum=0)
        positions = [(0.0, 0.0)]
        for ring in range(1, int(rings) + 1):
            for angle_deg in _HEX_ANGLES_DEG:
                angle = math.radians(angle_deg)
                corner = (
                    ring * inter_site_ft * math.cos(angle),
                    ring * inter_site_ft * math.sin(angle),
                )
                # Walk the ring edge from this corner towards the next one.
                next_angle = math.radians(angle_deg + 120)
                for step in range(ring):
                    positions.append(
                        (
                            corner[0] + step * inter_site_ft * math.cos(next_angle),
                            corner[1] + step * inter_site_ft * math.sin(next_angle),
                        )
                    )
        topology_kwargs = {
            key: site_kwargs.pop(key)
            for key in ("venue", "carrier_hz")
            if key in site_kwargs
        }
        sites = [
            CellSite(
                cell_id=index,
                x_ft=round(x, 9),
                y_ft=round(y, 9),
                **site_kwargs,
            )
            for index, (x, y) in enumerate(positions)
        ]
        return cls(sites=sites, **topology_kwargs)

    @classmethod
    def grid(cls, rows, cols, spacing_ft=300.0, **site_kwargs):
        """A rows x cols rectangular street grid of sites, ids row-major from 0."""
        require_whole("rows", rows, minimum=1)
        require_whole("cols", cols, minimum=1)
        require_finite("spacing_ft", spacing_ft, above=0.0)
        topology_kwargs = {
            key: site_kwargs.pop(key)
            for key in ("venue", "carrier_hz")
            if key in site_kwargs
        }
        sites = []
        for row in range(int(rows)):
            for col in range(int(cols)):
                sites.append(
                    CellSite(
                        cell_id=row * int(cols) + col,
                        x_ft=col * spacing_ft,
                        y_ft=row * spacing_ft,
                        **site_kwargs,
                    )
                )
        return cls(sites=sites, **topology_kwargs)

    @classmethod
    def explicit(cls, sites, **kwargs):
        """A topology over a hand-placed site list."""
        return cls(sites=list(sites), **kwargs)

    # -- views ------------------------------------------------------------------

    @property
    def n_cells(self):
        return len(self.sites)

    @property
    def cell_ids(self):
        return [site.cell_id for site in self.sites]

    @property
    def bandwidth_mhz(self):
        return self.sites[0].bandwidth_mhz

    @property
    def n_frames(self):
        return self.sites[0].n_frames

    def site(self, cell_id):
        try:
            return self._by_id[cell_id]
        except KeyError:
            raise KeyError(
                f"no cell {cell_id} in this topology; cells: {self.cell_ids}"
            ) from None

    def neighbours_of(self, cell_id):
        """Every other site, in ascending cell-id order (summation order)."""
        self.site(cell_id)
        return sorted(
            (site for site in self.sites if site.cell_id != cell_id),
            key=lambda site: site.cell_id,
        )

    def restrict(self, cell_ids):
        """A sub-topology keeping only ``cell_ids`` (order preserved)."""
        keep = set(cell_ids)
        missing = keep - set(self.cell_ids)
        if missing:
            raise KeyError(
                f"cannot restrict to unknown cell(s) {sorted(missing)}; "
                f"cells: {self.cell_ids}"
            )
        return replace(
            self, sites=[site for site in self.sites if site.cell_id in keep]
        )

    # -- radio queries ----------------------------------------------------------

    def rx_dbm_at(self, site, x_ft, y_ft):
        """Mean downlink power of ``site`` at a point (deterministic)."""
        return self.budget.direct_rx_dbm(site.distance_ft(x_ft, y_ft))

    def snr_db_at(self, site, x_ft, y_ft):
        """Post-pathloss downlink SNR of ``site`` at a point."""
        bandwidth_hz = site.bandwidth_mhz * 1e6
        return self.budget.direct_snr_db(
            site.distance_ft(x_ft, y_ft), bandwidth_hz
        )

    # -- ambient captures -------------------------------------------------------

    def prepare_ambients(self, cache, seed, handles=False):
        """One cached ambient per cell: ``{cell_id: stage-or-handle}``.

        Captures are generated (or reused) through ``cache`` in ascending
        cell-id order with per-cell transmitter seeds from
        :func:`ambient_seed`; ``handles=True`` vends picklable
        memory-mapped :class:`~repro.fleet.ambient.AmbientHandle`\\ s for
        worker processes instead of in-memory stages.
        """
        ambients = {}
        with span("cells.ambient") as sp:
            for site in sorted(self.sites, key=lambda s: s.cell_id):
                config = site.ambient_config(venue=self.venue)
                cell_seed = ambient_seed(seed, site.cell_id)
                if handles:
                    ambients[site.cell_id] = cache.handle(config, cell_seed)
                else:
                    ambients[site.cell_id] = cache.get(config, cell_seed)
            sp.set(n_cells=self.n_cells, transmit_calls=cache.transmit_calls)
        return ambients
