"""Shard grid expansion: determinism, partitioning, validation."""

import pytest

from repro.campaign import CampaignSpec, build_shards, select_shards


def test_build_shards_is_deterministic():
    spec = CampaignSpec(experiment="fig19", seed=3)
    first = build_shards(spec)
    second = build_shards(spec)
    assert [s.shard_id for s in first] == [s.shard_id for s in second]
    assert [s.params for s in first] == [s.params for s in second]
    assert [s.seed for s in first] == [s.seed for s in second]
    assert [s.index for s in first] == list(range(len(first)))


def test_shard_ids_encode_experiment_and_smoke():
    full = build_shards(CampaignSpec(experiment="fig19"))
    smoke = build_shards(CampaignSpec(experiment="fig19", smoke=True))
    assert full[0].shard_id == "fig19-0000"
    assert smoke[0].shard_id == "fig19-smoke-0000"
    # The smoke grid is a strict subset axis, never the full sweep.
    assert len(smoke) < len(full)


def test_spec_seed_becomes_shard_seed():
    shards = build_shards(CampaignSpec(experiment="fig19", seed=7))
    assert all(s.seed == 7 for s in shards)


def test_select_shards_partitions_round_robin():
    shards = build_shards(CampaignSpec(experiment="fig19"))
    slices = [select_shards(shards, 4, i) for i in range(4)]
    # Disjoint, exhaustive, and round-robin by grid index.
    seen = [s.index for sl in slices for s in sl]
    assert sorted(seen) == list(range(len(shards)))
    for i, sl in enumerate(slices):
        assert all(s.index % 4 == i for s in sl)


def test_select_shards_single_job_owns_everything():
    shards = build_shards(CampaignSpec(experiment="fig19"))
    assert select_shards(shards, 1, 0) == shards


@pytest.mark.parametrize(
    "n_shards, shard_index",
    [(0, 0), (-1, 0), (2, 2), (2, -1), (4, 99)],
)
def test_select_shards_validates_bounds(n_shards, shard_index):
    shards = build_shards(CampaignSpec(experiment="fig19", smoke=True))
    with pytest.raises(ValueError):
        select_shards(shards, n_shards, shard_index)


def test_unknown_experiment_raises_keyerror():
    with pytest.raises(KeyError):
        build_shards(CampaignSpec(experiment="not-an-experiment"))


def test_non_campaign_experiment_raises_with_capable_list():
    # fig08 is a real registry experiment without the campaign protocol.
    with pytest.raises(KeyError, match="campaign-capable"):
        build_shards(CampaignSpec(experiment="fig08"))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"workers": 2.5}, "^workers must be a whole number >= 1"),
        ({"workers": 0}, "^workers must be a whole number >= 1"),
        ({"n_shards": 2.5}, "^n_shards must be a whole number >= 1"),
        ({"n_shards": 0}, "^n_shards must be a whole number >= 1"),
        ({"n_shards": 2, "shard_index": 2}, r"^shard_index must be in \[0, 2\)"),
        ({"n_shards": 2, "shard_index": 0.5}, "^shard_index must be a whole number"),
    ],
)
def test_campaign_runner_rejects_bad_slices_naming_the_field(
    tmp_path, kwargs, message
):
    from repro.campaign import CampaignRunner

    spec = CampaignSpec(experiment="fig19", smoke=True)
    with pytest.raises(ValueError, match=message):
        CampaignRunner(spec, tmp_path, **kwargs)

