"""Sharded, resumable experiment campaigns.

The paper's headline results are parameter sweeps — distance matrices,
bandwidth scaling, 24 h diurnal deployments.  This package turns any
campaign-capable registry experiment into a deterministic shard grid that
executes through the fleet's :class:`~repro.fleet.engine.ParallelRunEngine`,
checkpoints every completed shard (JSON + CRC-32) into a run directory,
skips verified checkpoints on ``--resume``, and aggregates the full grid
back into the exact :class:`ExperimentResult` that ``run_experiment``
produces from the same grid.

Entry point: ``repro campaign <experiment> [--shards N --shard-index I
--resume]``; the sharding interface is what CI uses to split a sweep
across matrix jobs.  See DESIGN.md §13.
"""

from repro.campaign.checkpoint import CheckpointStore, canonical_crc
from repro.campaign.runner import (
    CampaignReport,
    CampaignRunner,
    ShardOutcome,
    ShardTask,
)
from repro.campaign.spec import (
    CampaignSpec,
    Shard,
    build_shards,
    select_shards,
)
from repro.experiments.registry import (
    CampaignDef,
    campaign_capable,
    get_campaign,
)

__all__ = [
    "CampaignDef",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "CheckpointStore",
    "Shard",
    "ShardOutcome",
    "ShardTask",
    "build_shards",
    "campaign_capable",
    "canonical_crc",
    "get_campaign",
    "select_shards",
]
