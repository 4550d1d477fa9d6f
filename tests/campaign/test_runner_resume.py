"""Campaign runner: sharded equality, resume, crash recovery."""

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    CheckpointStore,
    build_shards,
)
from repro.experiments.registry import run_experiment


def test_sharded_fig19_is_bit_identical_to_monolithic(tmp_path):
    """`repro campaign fig19 --shards 4` == the unsharded run, bit for bit."""
    spec = CampaignSpec(experiment="fig19", seed=0)
    report = CampaignRunner(spec, tmp_path, n_shards=4).run()
    mono = run_experiment("fig19", seed=0)
    assert report.result is not None
    assert report.result.rows == mono.rows  # exact float equality
    assert report.result.notes == mono.notes
    assert report.result.name == mono.name
    assert report.checkpointed == report.total_shards


def test_single_shard_job_leaves_grid_incomplete(tmp_path, crashy):
    spec = CampaignSpec(experiment="crashy", seed=0)
    report = CampaignRunner(spec, tmp_path, n_shards=2, shard_index=0).run()
    assert report.completed == 2  # round-robin slice 0 of a 4-point grid
    assert report.result is None
    assert report.checkpointed == 2
    assert report.total_shards == 4


def test_resume_skips_verified_checkpoints_untouched(tmp_path, crashy):
    spec = CampaignSpec(experiment="crashy", seed=0)
    CampaignRunner(spec, tmp_path, n_shards=2, shard_index=0).run()
    store = CheckpointStore(tmp_path)
    done = [s for s in build_shards(spec) if s.index % 2 == 0]
    before = {s.shard_id: open(store.path(s), "rb").read() for s in done}

    report = CampaignRunner(spec, tmp_path, resume=True).run()
    assert report.resumed == 2
    assert report.completed == 2
    assert report.failed == 0
    assert report.result is not None
    # Verified checkpoints are reused, not rewritten.
    after = {s.shard_id: open(store.path(s), "rb").read() for s in done}
    assert after == before


def test_resume_without_checkpoints_runs_everything(tmp_path, crashy):
    spec = CampaignSpec(experiment="crashy", seed=0)
    report = CampaignRunner(spec, tmp_path, resume=True).run()
    assert report.resumed == 0
    assert report.completed == 4
    assert report.result is not None


def test_corrupted_checkpoint_is_rerun(tmp_path, crashy):
    spec = CampaignSpec(experiment="crashy", seed=0)
    CampaignRunner(spec, tmp_path).run()
    store = CheckpointStore(tmp_path)
    victim = build_shards(spec)[1]
    path = store.path(victim)
    data = open(path).read()
    open(path, "w").write(data.replace('"squared": 1.0', '"squared": 9.0'))
    assert store.verify(victim) == ("corrupt", None)

    report = CampaignRunner(spec, tmp_path, resume=True).run()
    assert report.resumed == 3
    assert report.completed == 1  # only the corrupted shard re-ran
    assert store.verify(victim)[0] == "ok"
    assert report.result.rows[1]["squared"] == 1.0


def test_kill_mid_campaign_then_resume_completes_remaining(tmp_path, crashy):
    """The acceptance drill: die partway, keep checkpoints, resume the rest."""
    spec = CampaignSpec(experiment="crashy", seed=0)
    crashy.CRASH_ON.add(2)
    with pytest.raises(Exception):
        CampaignRunner(spec, tmp_path, max_retries=0).run()
    # Points 0 and 1 finished before the crash and are already on disk.
    store = CheckpointStore(tmp_path)
    shards = build_shards(spec)
    assert [store.verify(s)[0] for s in shards] == [
        "ok", "ok", "missing", "missing"
    ]

    crashy.CRASH_ON.clear()
    report = CampaignRunner(spec, tmp_path, resume=True).run()
    assert report.resumed == 2  # pre-crash work reused...
    assert report.completed == 2  # ...only the remainder executed
    assert report.failed == 0
    assert report.result is not None
    assert report.result.rows == run_experiment("crashy", seed=0).rows


def test_failed_shards_reported_in_partial_mode(tmp_path, crashy):
    spec = CampaignSpec(experiment="crashy", seed=0)
    crashy.CRASH_ON.add(3)
    report = CampaignRunner(
        spec, tmp_path, max_retries=0, on_error="partial"
    ).run()
    assert report.completed == 3
    assert report.failed == 1
    assert report.result is None
    failed = [o for o in report.outcomes if o.status == "failed"]
    assert "injected crash" in failed[0].error


def test_campaign_counters_increment(tmp_path, crashy):
    from repro.obs import metrics as obs_metrics

    obs_metrics.reset_metrics()
    spec = CampaignSpec(experiment="crashy", seed=0)
    CampaignRunner(spec, tmp_path).run()
    CampaignRunner(spec, tmp_path, resume=True).run()
    counters = obs_metrics.counters_snapshot()
    assert counters["campaign.shards_completed"] == 4
    assert counters["campaign.shards_skipped"] == 4
