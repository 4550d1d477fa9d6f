"""NetworkRunner: validation, determinism, attach grouping, mobility."""

import pytest

from repro.cells import (
    HandoverPolicy,
    NetworkDeployment,
    NetworkRunner,
    NetworkTag,
    Topology,
    rank_cells,
)
from repro.fleet.ambient import AmbientCache


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
    with pytest.raises(ValueError, match="tag_to_ue_ft must be positive"):
        NetworkTag("t", 0.0, 0.0, tag_to_ue_ft=0.0)
    with pytest.raises(ValueError, match="waypoints=\\(\\)"):
        NetworkTag("t", 0.0, 0.0, waypoints=())
    with pytest.raises(ValueError, match="waypoint"):
        NetworkTag("t", 0.0, 0.0, waypoints=[(0.0, float("nan"))])


def test_deployment_rejects_duplicates_with_names():
    with pytest.raises(ValueError, match="duplicate tag name 'a'"):
        NetworkDeployment(tags=[NetworkTag("a", 0.0, 0.0), NetworkTag("a", 1.0, 0.0)])
    with pytest.raises(ValueError, match="'a' and 'b' are co-located"):
        NetworkDeployment(tags=[NetworkTag("a", 2.0, 3.0), NetworkTag("b", 2.0, 3.0)])


def test_scatter_is_deterministic(topo):
    a = NetworkDeployment.scatter(4, topo, seed=5)
    b = NetworkDeployment.scatter(4, topo, seed=5)
    c = NetworkDeployment.scatter(4, topo, seed=6)
    assert [(t.x_ft, t.y_ft) for t in a.tags] == [(t.x_ft, t.y_ft) for t in b.tags]
    assert [(t.x_ft, t.y_ft) for t in a.tags] != [(t.x_ft, t.y_ft) for t in c.tags]


def test_seven_cell_run_bit_identical_across_worker_counts(topo, deployment):
    """Acceptance: the hex-7 network reproduces exactly at any --workers."""
    with NetworkRunner(topo, deployment, seed=11, payload_length=4000) as r:
        serial = r.run()
    with NetworkRunner(
        topo, deployment, seed=11, payload_length=4000, workers=3
    ) as r:
        pooled = r.run()
    assert _tag_rows(serial) == _tag_rows(pooled)
    assert serial.aggregate_goodput_bps == pooled.aggregate_goodput_bps
    assert {c: r.collision_fraction for c, r in serial.cells.items()} == {
        c: r.collision_fraction for c, r in pooled.cells.items()
    }


def test_every_tag_lands_in_its_top_ranked_cell(topo, deployment):
    with AmbientCache() as cache:

        def run():
            with NetworkRunner(
                topo, deployment, seed=11, payload_length=2000, cache=cache
            ) as r:
                return r.run()

        report = run()
        # A warm re-run over the shared cache reuses every cell's capture.
        again = run()
        assert cache.transmit_calls == 7
        assert cache.requests == 14
    assert _tag_rows(again) == _tag_rows(report)
    for tag in deployment.tags:
        decision = report.attachments[tag.name]
        assert decision.serving_cell_id == rank_cells(
            topo, tag.x_ft, tag.y_ft
        )[0].cell_id
    # Cohorts partition the fleet: every tag appears in exactly one cell.
    names = [row[1] for row in _tag_rows(report)]
    assert sorted(names) == sorted(deployment.names)


def test_mobile_tag_pays_resync_cost(topo):
    route = tuple((120.0 - 24.0 * i, 0.5) for i in range(11))
    static = NetworkDeployment(
        tags=[NetworkTag("walker", *route[0])]
    )
    mobile = NetworkDeployment(
        tags=[NetworkTag("walker", *route[0], waypoints=route)]
    )
    policy = HandoverPolicy(search_snr_db=80.0, resync_half_frames=1)
    with NetworkRunner(
        topo, static, seed=0, payload_length=2000, handover_policy=policy
    ) as r:
        baseline = r.run()
    with NetworkRunner(
        topo, mobile, seed=0, payload_length=2000, handover_policy=policy
    ) as r:
        moving = r.run()
    trace = moving.handovers["walker"]
    assert trace.n_handovers >= 1
    assert moving.mobility_factor["walker"] < 1.0
    # Same IQ outcome (same first waypoint), goodput scaled by re-sync.
    assert moving.tag("walker").n_bits == baseline.tag("walker").n_bits
    assert (
        moving.aggregate_goodput_bps
        == pytest.approx(
            baseline.aggregate_goodput_bps * moving.mobility_factor["walker"]
        )
    )


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
