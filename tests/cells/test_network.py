"""NetworkRunner: validation, determinism, attach grouping."""

import pytest

from repro.cells import (
    NetworkDeployment,
    NetworkRunner,
    NetworkTag,
    Topology,
    rank_cells,
)
from repro.fleet.engine import ParallelRunEngine
from repro.fleet.runner import TagTask, _simulate_tag


def _tag_rows(report):
    """Every per-tag counter, in deterministic order — the equality probe."""
    rows = []
    for cell_id in sorted(report.cells):
        for t in report.cells[cell_id].tags:
            rows.append(
                (cell_id, t.name, t.n_bits, t.n_errors, t.n_windows,
                 t.n_lost_windows, t.n_erased_windows, t.owned_half_frames)
            )
    return rows


@pytest.fixture(scope="module")
def topo():
    return Topology.hex_cluster(inter_site_ft=120.0, rings=1, n_frames=1)


@pytest.fixture(scope="module")
def deployment(topo):
    return NetworkDeployment.scatter(5, topo, seed=2, margin_ft=30.0)


def test_tag_validation_messages():
    with pytest.raises(ValueError, match="finite"):
        NetworkTag("t", float("inf"), 0.0)
    with pytest.raises(ValueError, match="finite"):
        NetworkTag("t", 0.0, float("nan"))


def test_deployment_rejects_duplicates_with_names():
    with pytest.raises(ValueError, match="duplicate tag name 'a'"):
        NetworkDeployment(tags=[NetworkTag("a", 0.0, 0.0), NetworkTag("a", 1.0, 0.0)])
    with pytest.raises(ValueError, match="'a' and 'b' are co-located"):
        NetworkDeployment(tags=[NetworkTag("a", 2.0, 3.0), NetworkTag("b", 2.0, 3.0)])


@pytest.mark.parametrize(
    "field, value",
    [
        ("sync_error_samples", 2.5),
        ("sync_error_samples", float("nan")),
    ],
)
def test_deployment_rejects_bad_shared_knob_naming_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        NetworkDeployment(tags=[NetworkTag("a", 0.0, 0.0)], **{field: value})


@pytest.mark.parametrize("n_tags", [2.5, float("nan"), "3"])
def test_scatter_rejects_bad_tag_counts_naming_the_field(topo, n_tags):
    with pytest.raises(ValueError, match="^n_tags must be a whole number >= 1"):
        NetworkDeployment.scatter(n_tags, topo)


@pytest.mark.parametrize("margin_ft", [float("nan"), float("inf"), -1000.0])
def test_scatter_rejects_bad_margin_naming_the_field(topo, margin_ft):
    with pytest.raises(ValueError, match="^margin_ft must be a finite number >= 0"):
        NetworkDeployment.scatter(4, topo, margin_ft=margin_ft)


def test_scatter_is_deterministic(topo):
    a = NetworkDeployment.scatter(4, topo, seed=5)
    b = NetworkDeployment.scatter(4, topo, seed=5)
    c = NetworkDeployment.scatter(4, topo, seed=6)
    assert [(t.x_ft, t.y_ft) for t in a.tags] == [(t.x_ft, t.y_ft) for t in b.tags]
    assert [(t.x_ft, t.y_ft) for t in a.tags] != [(t.x_ft, t.y_ft) for t in c.tags]


#: ``_tag_rows`` of the hex-7, five-tag, seed-11 run (payload 4000),
#: recorded when each cell's tags still ran as one serial cohort task.
GOLDEN_TAG_ROWS = [
    (1, "tag001", 4176, 109, 58, 0, 0, 1),
    (1, "tag004", 0, 0, 0, 0, 0, 1),
    (2, "tag002", 4176, 316, 58, 0, 0, 1),
    (2, "tag003", 4176, 270, 58, 0, 0, 1),
    (5, "tag000", 8352, 990, 116, 0, 0, 2),
]

#: The same run's network floats, recorded with the rows above.
GOLDEN_AGGREGATE_GOODPUT_BPS = 1919500.0
GOLDEN_MEAN_BER = 0.0712404214559387


def test_run_maps_one_tag_task_per_tag_once(topo, deployment, monkeypatch):
    """Every served tag is one pool task of the fleet's per-tag function."""
    calls = []
    real_map = ParallelRunEngine.map

    def spy(self, fn, tasks, on_result=None):
        calls.append((fn, list(tasks)))
        return real_map(self, fn, tasks, on_result)

    monkeypatch.setattr(ParallelRunEngine, "map", spy)
    with NetworkRunner(topo, deployment, seed=11, payload_length=2000) as r:
        report = r.run()
    assert len(calls) == 1
    fn, tasks = calls[0]
    assert fn is _simulate_tag
    assert all(isinstance(task, TagTask) for task in tasks)
    assert sorted(task.name for task in tasks) == sorted(deployment.names)
    # Each cell's report holds its own slice of the results, in task order.
    assert [row[1] for row in _tag_rows(report)] == [t.name for t in tasks]


def test_seven_cell_run_bit_identical_across_worker_counts(topo, deployment):
    """Acceptance: the hex-7 network reproduces exactly at any --workers."""
    with NetworkRunner(topo, deployment, seed=11, payload_length=4000) as r:
        serial = r.run()
    with NetworkRunner(
        topo, deployment, seed=11, payload_length=4000, workers=3
    ) as r:
        pooled = r.run()
    assert _tag_rows(serial) == GOLDEN_TAG_ROWS
    assert _tag_rows(pooled) == GOLDEN_TAG_ROWS
    for report in (serial, pooled):
        assert report.aggregate_goodput_bps == GOLDEN_AGGREGATE_GOODPUT_BPS
        assert report.mean_ber == GOLDEN_MEAN_BER
    assert {c: r.collision_fraction for c, r in serial.cells.items()} == {
        c: r.collision_fraction for c, r in pooled.cells.items()
    }


def test_every_tag_lands_in_its_top_ranked_cell(topo, deployment):
    with NetworkRunner(topo, deployment, seed=11, payload_length=2000) as r:
        report = r.run()
        # One capture per cell, each requested once.
        assert r.cache.transmit_calls == 7
        assert r.cache.requests == 7
    for tag in deployment.tags:
        decision = report.attachments[tag.name]
        assert decision.serving_cell_id == rank_cells(
            topo, tag.x_ft, tag.y_ft
        )[0].cell_id
    # Cohorts partition the fleet: every tag appears in exactly one cell.
    names = [row[1] for row in _tag_rows(report)]
    assert sorted(names) == sorted(deployment.names)


def test_report_summary_is_json_ready(topo, deployment):
    import json

    with NetworkRunner(topo, deployment, seed=11, payload_length=2000) as r:
        report = r.run()
    summary = json.loads(json.dumps(report.summary()))
    assert summary["n_cells"] == 7
    assert summary["n_tags"] == deployment.n_tags
    assert set(summary["attachments"]) == set(deployment.names)
    table = report.format_table()
    assert "network: 7 cell(s)" in table


def test_invalid_attach_mode_rejected(topo, deployment):
    with pytest.raises(ValueError, match="attach_mode"):
        NetworkRunner(topo, deployment, attach_mode="psychic")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"workers": 2.5}, "^workers must be a whole number >= 1"),
        ({"workers": 0}, "^workers must be a whole number >= 1"),
        ({"payload_length": 2.5}, "^payload_length must be a whole number >= 0"),
        ({"payload_length": -5}, "^payload_length must be a whole number >= 0"),
    ],
)
def test_runner_rejects_bad_counts_naming_the_field(
    topo, deployment, kwargs, message
):
    with pytest.raises(ValueError, match=message):
        NetworkRunner(topo, deployment, **kwargs)

