"""The one experiment protocol: a sweep runs only through its campaign grid."""

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, campaign_capable
from repro.experiments.registry import (
    experiment_keywords,
    resolve_module,
    run_experiment,
)

SWEEPS = campaign_capable()


def test_campaign_capable_lists_the_fifteen_sweeps():
    assert SWEEPS == [
        "fig16", "fig17", "fig18", "fig19", "fig21", "fig22", "fig23",
        "fig24", "fig26", "fig27", "fig28", "fig29", "netgrid",
        "stressgrid", "subgrid",
    ]


@pytest.mark.parametrize("experiment", SWEEPS)
def test_two_shard_smoke_campaign_equals_run_experiment(experiment, tmp_path):
    """Rows round-trip the checkpoint JSON and each id resolves its own
    ``_<id>`` point and aggregate functions."""
    spec = CampaignSpec(experiment=experiment, seed=0, smoke=True)
    report = CampaignRunner(spec, tmp_path, n_shards=2).run()
    direct = run_experiment(experiment, seed=0, smoke=True)
    assert report.result is not None
    assert report.result.rows == direct.rows  # exact float equality
    assert report.result.name == direct.name == experiment
    assert report.result.notes == direct.notes


@pytest.mark.parametrize("experiment", SWEEPS)
def test_sweep_modules_define_no_monolithic_run(experiment):
    module = resolve_module(experiment)
    assert not hasattr(module, "run")
    assert not hasattr(module, f"run_{experiment}")


def test_sweep_keywords_are_declared_by_the_grid():
    assert "smoke" in experiment_keywords("fig16")
    assert "substrate" in experiment_keywords("subgrid")
    assert "substrate" not in experiment_keywords("fig16")
    assert experiment_keywords("fig18") == ("smoke", "n_frames")
    assert experiment_keywords("fig19") == ("smoke",)
    # Not a sweep: its keywords are its run()'s.
    assert experiment_keywords("fig32") == ("bandwidths", "n_captures")
    assert experiment_keywords("fig31") == ()
