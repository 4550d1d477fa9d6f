"""Campaign specifications and the deterministic shard grid.

A :class:`CampaignSpec` names a registry experiment plus the knobs that
shape its parameter grid (seed, smoke mode).  :func:`build_shards`
expands the spec into the full ordered list of :class:`Shard`\\ s — one
per grid point, each carrying its JSON-safe parameter dict and the spec
seed — and :func:`select_shards` picks the round-robin subset a single
job (a CI matrix entry, a crashed-and-resumed rerun) is responsible for.

Determinism contract: the same spec always produces the same shards in
the same order with the same seed, independent of how they are later
partitioned or executed.  Everything downstream (checkpoint identity,
resume, sharded-vs-monolithic equality) leans on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.registry import get_campaign
from repro.utils.validation import require_whole


@dataclass(frozen=True)
class CampaignSpec:
    """What to sweep: a campaign-capable experiment and its grid knobs."""

    experiment: str
    seed: int = 0
    #: Smoke grids are the experiments' reduced CI axes.
    smoke: bool = False


@dataclass
class Shard:
    """One grid point of a campaign; every shard takes the spec seed."""

    #: Position in the full grid (stable across any partitioning).
    index: int
    #: Filesystem-safe stable identity, e.g. ``fig19-0003``.
    shard_id: str
    experiment: str
    #: JSON-safe parameters for ``run_point``.
    params: dict = field(default_factory=dict)
    seed: int = 0


def build_shards(spec):
    """Expand a spec into the full, ordered, seeded shard list."""
    definition = get_campaign(spec.experiment)
    points = definition.points(seed=spec.seed, smoke=spec.smoke)
    prefix = f"{spec.experiment}{'-smoke' if spec.smoke else ''}"
    return [
        Shard(
            index=index,
            shard_id=f"{prefix}-{index:04d}",
            experiment=spec.experiment,
            params=dict(params),
            seed=spec.seed,
        )
        for index, params in enumerate(points)
    ]


def check_slice(n_shards, shard_index):
    """Reject a job slice that is not one of ``n_shards`` round-robin slices."""
    require_whole("n_shards", n_shards, minimum=1)
    require_whole("shard_index", shard_index)
    if not 0 <= shard_index < n_shards:
        raise ValueError(
            f"shard_index must be in [0, {n_shards}), got {shard_index}"
        )


def select_shards(shards, n_shards, shard_index):
    """The round-robin subset of the grid owned by one of ``n_shards`` jobs.

    Round-robin (``index % n_shards``) keeps every job's cost roughly
    equal even when the grid is ordered cheap-to-expensive (distance and
    bandwidth sweeps usually are).
    """
    check_slice(n_shards, shard_index)
    return [shard for shard in shards if shard.index % n_shards == shard_index]
