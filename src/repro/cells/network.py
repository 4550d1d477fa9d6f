"""City-scale network runs: many cells, many tags, one deterministic answer.

This module scales the single-cell fleet machinery to a multi-cell
topology.  The moving parts:

* :class:`NetworkTag` — a static tag at an absolute venue position (feet),
  its UE :data:`TAG_TO_UE_FT` away;
* :class:`NetworkDeployment` — the tag population plus the per-tag
  simulation knobs shared network-wide;
* :class:`NetworkRunner` — the orchestrator.  It prepares one cached
  ambient capture per cell (:meth:`Topology.prepare_ambients`), attaches
  every tag (analytic ranking by default, IQ-verified cell search with
  ``attach_mode="search"``), schedules each cell's MAC independently,
  runs every served tag as a fleet :class:`~repro.fleet.runner.TagTask`
  in one :class:`~repro.fleet.engine.ParallelRunEngine` map, and builds
  each cell's report with the fleet's :func:`~repro.fleet.report.fleet_report`.

Determinism is inherited, not re-argued: per-tag seeds and per-cell MAC
seeds come from :func:`repro.utils.rng.stream_rng` keyed on stable names,
so they are independent of cohort composition, worker count, and
sharding; each tag's interference superposition is built in fixed
cell-id order; ambient spills round-trip exact bytes.  A 7-cell run is
bit-identical at any ``--workers`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import time

import numpy as np

from repro.cells.attach import attach as analytic_attach
from repro.cells.attach import search_attach
from repro.cells.interference import CellAmbient, neighbour_recipes
from repro.cells.site import TX_POWER_DBM
from repro.core.config import SystemConfig
from repro.fleet.ambient import AmbientCache
from repro.fleet.engine import EngineTelemetry, ParallelRunEngine
from repro.fleet.report import capture_seconds, fleet_report
from repro.fleet.runner import TagTask, _simulate_tag
from repro.fleet.scheduler import FleetScheduler, make_scheme
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.rng import stream_rng
from repro.utils.validation import require_whole

#: eNodeB-to-tag distances below this (ft) are clamped — a tag cannot sit
#: inside the transmit antenna, and the pathloss model floors there anyway.
_MIN_HOP_FT = 0.1

#: Tag-to-UE hop of every network tag (feet).
TAG_TO_UE_FT = 5.0


@dataclass(frozen=True)
class NetworkTag:
    """One static tag at an absolute position in the venue plane."""

    name: str
    x_ft: float
    y_ft: float

    def __post_init__(self):
        if not (math.isfinite(float(self.x_ft)) and math.isfinite(float(self.y_ft))):
            raise ValueError(
                f"tag {self.name!r}: position ({self.x_ft}, {self.y_ft}) ft "
                "must be finite"
            )

    @property
    def position(self):
        """Where the tag's IQ-level simulation runs."""
        return (float(self.x_ft), float(self.y_ft))


@dataclass
class NetworkDeployment:
    """The tag population of a multi-cell network plus shared sim knobs.

    Every network tag runs with a genie reference and model sync.
    """

    tags: list = field(default_factory=list)
    add_noise: bool = True
    multipath: bool = True
    sync_error_samples: int = None

    def __post_init__(self):
        if not self.tags:
            raise ValueError("a network deployment needs at least one tag")
        names = {}
        positions = {}
        for tag in self.tags:
            if tag.name in names:
                raise ValueError(
                    f"duplicate tag name {tag.name!r}; every tag needs a "
                    "distinct name"
                )
            names[tag.name] = tag
            pos = tag.position
            if pos in positions:
                raise ValueError(
                    f"tags {positions[pos]!r} and {tag.name!r} are co-located "
                    f"at {pos} ft; two tags cannot share one antenna position"
                )
            positions[pos] = tag.name
        # The shared knobs meet the per-tag config's checks here, so a bad
        # sync pin fails at construction, naming the field.
        SystemConfig(
            sync_error_samples=self.sync_error_samples,
            multipath=self.multipath,
            add_noise=self.add_noise,
        )

    @classmethod
    def scatter(cls, n_tags, topology, seed=0, margin_ft=50.0, **kwargs):
        """Tags scattered uniformly over the topology's bounding box.

        Positions come from a keyed stream (:func:`stream_rng`), so the
        same ``(n_tags, topology, seed)`` always produces the same
        deployment regardless of call order.
        """
        require_whole("n_tags", n_tags, minimum=1)
        xs = [site.x_ft for site in topology.sites]
        ys = [site.y_ft for site in topology.sites]
        rng = stream_rng(seed, "cells.scatter", int(n_tags))
        tags = [
            NetworkTag(
                name=f"tag{i:03d}",
                x_ft=float(rng.uniform(min(xs) - margin_ft, max(xs) + margin_ft)),
                y_ft=float(rng.uniform(min(ys) - margin_ft, max(ys) + margin_ft)),
            )
            for i in range(int(n_tags))
        ]
        return cls(tags=tags, **kwargs)

    @property
    def n_tags(self):
        return len(self.tags)

    @property
    def names(self):
        return [tag.name for tag in self.tags]

    def config_for(self, topology, site, tag):
        """The per-tag :class:`SystemConfig` on its serving cell."""
        x, y = tag.position
        return SystemConfig(
            bandwidth_mhz=site.bandwidth_mhz,
            venue=topology.venue,
            enb_to_tag_ft=max(site.distance_ft(x, y), _MIN_HOP_FT),
            tag_to_ue_ft=TAG_TO_UE_FT,
            tx_power_dbm=TX_POWER_DBM,
            carrier_hz=topology.carrier_hz,
            cell=site.cell_config(),
            n_frames=site.n_frames,
            reference_mode="genie",
            sync_mode="model",
            sync_error_samples=self.sync_error_samples,
            multipath=self.multipath,
            add_noise=self.add_noise,
        )


def tag_seed(seed, name):
    """Per-tag simulation seed, independent of cohort composition."""
    return int(stream_rng(seed, "cells.tag", name).integers(0, 2**63 - 1))


def mac_seed(seed, cell_id):
    """Per-cell MAC scheduling seed, independent of attach outcomes."""
    return int(
        stream_rng(seed, "cells.mac", int(cell_id)).integers(0, 2**63 - 1)
    )


@dataclass
class NetworkReport:
    """Everything one :class:`NetworkRunner` run produced."""

    n_cells: int
    n_tags: int
    scheme: str
    #: Cell id -> :class:`FleetReport` (cells with no attached tags absent).
    cells: dict = field(default_factory=dict)
    #: Tag name -> :class:`~repro.cells.attach.AttachDecision`.
    attachments: dict = field(default_factory=dict)
    duration_seconds: float = 0.0
    workers: int = 1
    wall_seconds: float = 0.0
    ambient_transmit_calls: int = 0

    def tag(self, name):
        for report in self.cells.values():
            for result in report.tags:
                if result.name == name:
                    return result
        raise KeyError(name)

    @property
    def aggregate_goodput_bps(self):
        """Network goodput: every tag's, summed cell by cell."""
        total = 0.0
        for report in self.cells.values():
            for result in report.tags:
                total += result.throughput_bps(self.duration_seconds)
        return total

    @property
    def mean_ber(self):
        measured = [
            result.ber
            for report in self.cells.values()
            for result in report.tags
            if result.n_bits > 0
        ]
        if not measured:
            return float("nan")
        return sum(measured) / len(measured)

    def summary(self):
        """A JSON-ready digest (what ``repro network`` writes to disk)."""
        mean = self.mean_ber
        return {
            "n_cells": self.n_cells,
            "n_tags": self.n_tags,
            "scheme": self.scheme,
            "duration_seconds": self.duration_seconds,
            "aggregate_goodput_bps": self.aggregate_goodput_bps,
            "mean_ber": None if math.isnan(mean) else mean,
            "workers": self.workers,
            "ambient_transmit_calls": self.ambient_transmit_calls,
            "cells": {
                str(cell_id): {
                    "n_tags": report.n_tags,
                    "goodput_bps": report.aggregate_throughput_bps,
                    "collision_fraction": report.collision_fraction,
                }
                for cell_id, report in sorted(self.cells.items())
            },
            "attachments": {
                name: {
                    "cell_id": decision.serving_cell_id,
                    "snr_db": decision.serving.snr_db,
                    "verified": decision.verified,
                }
                for name, decision in sorted(self.attachments.items())
            },
        }

    def format_table(self):
        """Per-tag table across cells plus the network footer."""
        header = (
            f"{'tag':8s} {'cell':>4s} {'snr_db':>7s} {'owned':>5s} "
            f"{'bits':>8s} {'BER':>10s} {'kbps':>9s}"
        )
        lines = [header]
        for cell_id in sorted(self.cells):
            for result in self.cells[cell_id].tags:
                decision = self.attachments[result.name]
                ber = f"{result.ber:.3e}" if result.n_bits else "-"
                kbps = result.throughput_bps(self.duration_seconds) / 1e3
                lines.append(
                    f"{result.name:8s} {cell_id:4d} "
                    f"{decision.serving.snr_db:7.1f} "
                    f"{result.owned_half_frames:5d} {result.n_bits:8d} "
                    f"{ber:>10s} {kbps:9.1f}"
                )
        lines.append(
            f"network: {self.n_cells} cell(s), {self.n_tags} tag(s), "
            f"{self.aggregate_goodput_bps / 1e3:.1f} kbps aggregate, "
            f"scheme={self.scheme}"
        )
        lines.append(
            f"engine: {self.workers} worker(s), wall {self.wall_seconds:.2f} s, "
            f"{self.ambient_transmit_calls} eNodeB transmit call(s)"
        )
        return "\n".join(lines)


class NetworkRunner:
    """One multi-cell network simulation over per-cell cached ambients."""

    def __init__(
        self,
        topology,
        deployment,
        scheme="tdma",
        workers=1,
        seed=0,
        cache=None,
        attach_mode="analytic",
        payload_length=20000,
    ):
        if attach_mode not in ("analytic", "search"):
            raise ValueError(
                f"attach_mode must be 'analytic' or 'search', got {attach_mode!r}"
            )
        require_whole("workers", workers, minimum=1)
        require_whole("payload_length", payload_length, minimum=0)
        self.topology = topology
        self.deployment = deployment
        self.scheme = scheme
        self.workers = int(workers)
        self.seed = int(seed)
        self._owns_cache = cache is None
        self.cache = cache if cache is not None else AmbientCache()
        self.attach_mode = attach_mode
        self.payload_length = int(payload_length)

    def close(self):
        if self._owns_cache:
            self.cache.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- phases -----------------------------------------------------------------

    def _attach_all(self, stage_ambients):
        """Attach every tag at its position."""
        decisions = {}
        with span("cells.attach") as sp:
            for tag in self.deployment.tags:
                x, y = tag.position
                if self.attach_mode == "search":
                    decisions[tag.name] = search_attach(
                        self.topology, tag.name, x, y, stage_ambients
                    )
                else:
                    decisions[tag.name] = analytic_attach(
                        self.topology, tag.name, x, y
                    )
            sp.set(n_tags=len(decisions))
        return decisions

    def _cohorts(self, decisions):
        """Group tags by serving cell, in ascending cell-id order."""
        cohorts = {}
        for tag in self.deployment.tags:
            cohorts.setdefault(decisions[tag.name].serving_cell_id, []).append(tag)
        return dict(sorted(cohorts.items()))

    def _schedule_cell(self, site, members):
        """One cell's independent MAC schedule (parent-process RNG)."""
        scheduler = FleetScheduler(
            make_scheme(self.scheme),
            rng=np.random.default_rng(mac_seed(self.seed, site.cell_id)),
        )
        budget = self.topology.budget
        powers = {}
        for tag in members:
            x, y = tag.position
            powers[tag.name] = budget.backscatter_rx_dbm(
                max(site.distance_ft(x, y), _MIN_HOP_FT), TAG_TO_UE_FT
            )
        return scheduler.assign(
            [tag.name for tag in members],
            2 * site.n_frames,
            powers,
        )

    # -- run --------------------------------------------------------------------

    def run(self):
        """Simulate the network; returns a :class:`NetworkReport`."""
        topology = self.topology
        deployment = self.deployment

        engine = ParallelRunEngine(workers=self.workers)
        parallel = engine.workers > 1 and deployment.n_tags > 1
        # Workers need picklable memory-mapped handles; the serial path
        # keeps in-memory stages.  Spilled bytes round-trip exactly, so
        # the choice never changes a single result bit.
        ambients = topology.prepare_ambients(self.cache, self.seed, handles=parallel)
        if self.attach_mode == "search" and parallel:
            # Search-attach runs in the parent over in-memory stages.
            stage_ambients = topology.prepare_ambients(self.cache, self.seed)
        else:
            stage_ambients = ambients

        decisions = self._attach_all(stage_ambients)
        cohorts = self._cohorts(decisions)

        schedules = {}
        tasks = []
        for cell_id, members in cohorts.items():
            site = topology.site(cell_id)
            schedule = self._schedule_cell(site, members)
            schedules[cell_id] = schedule
            for index, tag in enumerate(members):
                x, y = tag.position
                recipes = neighbour_recipes(topology, site, x, y, ambients)
                tasks.append(
                    TagTask(
                        index=index,
                        name=tag.name,
                        config=deployment.config_for(topology, site, tag),
                        seed=tag_seed(self.seed, tag.name),
                        owned=tuple(schedule.owned_half_frames(tag.name)),
                        collided=len(schedule.collided_half_frames(tag.name)),
                        payload_length=self.payload_length,
                        enb_to_tag_ft=max(site.distance_ft(x, y), _MIN_HOP_FT),
                        tag_to_ue_ft=TAG_TO_UE_FT,
                        ambient=CellAmbient(
                            serving=ambients[cell_id], neighbours=recipes
                        ),
                    )
                )
            obs_metrics.counter_inc("cells.cohorts")

        start = time.perf_counter()
        results = engine.map(_simulate_tag, tasks)
        wall = time.perf_counter() - start

        # Tasks go cohort after cohort, so each cell's results are one slice.
        cells = {}
        first = 0
        for cell_id, members in cohorts.items():
            cells[cell_id] = fleet_report(
                schedules[cell_id],
                results[first : first + len(members)],
                EngineTelemetry(workers=engine.workers),
                self.cache.transmit_calls,
            )
            first += len(members)

        return NetworkReport(
            n_cells=topology.n_cells,
            n_tags=deployment.n_tags,
            scheme=str(self.scheme),
            cells=cells,
            attachments=decisions,
            duration_seconds=capture_seconds(2 * topology.n_frames),
            workers=engine.workers,
            wall_seconds=wall,
            ambient_transmit_calls=self.cache.transmit_calls,
        )
