"""CellSite and Topology: identity, layouts, validation, ambient prep."""

import math

import numpy as np
import pytest

from repro.cells import CellSite, Topology, ambient_seed
from repro.fleet import AmbientCache


def test_site_identity_split_matches_standard():
    site = CellSite(cell_id=301, x_ft=0.0, y_ft=0.0)
    assert site.n_id_1 == 100
    assert site.n_id_2 == 1
    cell = site.cell_config()
    assert 3 * cell.n_id_1 + cell.n_id_2 == 301


def test_site_validation_messages_are_actionable():
    with pytest.raises(ValueError, match=r"\[0, 503\]"):
        CellSite(cell_id=504, x_ft=0.0, y_ft=0.0)
    with pytest.raises(ValueError, match="finite"):
        CellSite(cell_id=0, x_ft=float("nan"), y_ft=0.0)
    with pytest.raises(ValueError, match="n_frames"):
        CellSite(cell_id=0, x_ft=0.0, y_ft=0.0, n_frames=0)


@pytest.mark.parametrize("cell_id", [2.5, "7", float("nan"), -1, 504])
def test_site_cell_id_must_be_a_whole_identity(cell_id):
    with pytest.raises(ValueError, match="cell_id"):
        CellSite(cell_id=cell_id, x_ft=0.0, y_ft=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("bandwidth_mhz", 7),
        ("bandwidth_mhz", float("nan")),
        ("n_frames", 2.5),
    ],
)
def test_site_rejects_bad_field_naming_cell_and_field(field, value):
    with pytest.raises(ValueError, match=f"^cell 9: {field} must be"):
        CellSite(cell_id=9, x_ft=0.0, y_ft=0.0, **{field: value})


@pytest.mark.parametrize("pitch", [0.0, float("nan"), float("inf")])
def test_layout_pitch_must_be_finite_and_positive(pitch):
    with pytest.raises(ValueError, match="inter_site_ft must be a finite number > 0"):
        Topology.hex_cluster(inter_site_ft=pitch, rings=1)
    with pytest.raises(ValueError, match="spacing_ft must be a finite number > 0"):
        Topology.grid(1, 2, spacing_ft=pitch)


@pytest.mark.parametrize(
    "layout, kwargs, message",
    [
        ("hex_cluster", {"rings": 1.5}, "^rings must be a whole number >= 0"),
        ("hex_cluster", {"rings": float("nan")}, "^rings must be a whole number >= 0"),
        ("grid", {"rows": 2.5, "cols": 2}, "^rows must be a whole number >= 1"),
        ("grid", {"rows": 2, "cols": 2.5}, "^cols must be a whole number >= 1"),
    ],
)
def test_layout_counts_must_be_whole_naming_the_field(layout, kwargs, message):
    with pytest.raises(ValueError, match=message):
        getattr(Topology, layout)(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [
        ("carrier_hz", float("nan")),
        ("carrier_hz", 0.0),
        ("carrier_hz", -1.0),
        ("venue", "nowhere"),
    ],
)
def test_topology_checks_venue_and_carrier_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        Topology.hex_cluster(rings=1, **{field: value})


def test_hex_cluster_seven_cells_one_ring():
    topo = Topology.hex_cluster(inter_site_ft=100.0, rings=1)
    assert topo.n_cells == 7
    assert topo.cell_ids == list(range(7))
    centre = topo.site(0)
    for cell_id in range(1, 7):
        assert topo.site(cell_id).distance_ft(
            centre.x_ft, centre.y_ft
        ) == pytest.approx(100.0)


def test_hex_cluster_two_rings_has_nineteen_cells():
    assert Topology.hex_cluster(rings=2).n_cells == 19


def test_grid_layout_positions():
    topo = Topology.grid(2, 3, spacing_ft=50.0)
    assert topo.n_cells == 6
    assert (topo.site(5).x_ft, topo.site(5).y_ft) == (100.0, 50.0)


def test_duplicate_cell_id_rejected_with_names():
    with pytest.raises(ValueError, match="duplicate cell_id 7"):
        Topology.explicit(
            [CellSite(7, 0.0, 0.0), CellSite(7, 100.0, 0.0)]
        )


def test_colocated_sites_rejected_naming_both():
    with pytest.raises(ValueError, match="cells 0 and 1 are co-located"):
        Topology.explicit([CellSite(0, 5.0, 5.0), CellSite(1, 5.0, 5.0)])


def test_mixed_bandwidth_and_frames_rejected_naming_offender():
    with pytest.raises(ValueError, match="cell 1 uses 5.0 MHz"):
        Topology.explicit(
            [CellSite(0, 0.0, 0.0), CellSite(1, 100.0, 0.0, bandwidth_mhz=5.0)]
        )
    with pytest.raises(ValueError, match="cell 1 transmits 2 frame"):
        Topology.explicit(
            [CellSite(0, 0.0, 0.0, n_frames=4), CellSite(1, 100.0, 0.0, n_frames=2)]
        )


def test_unknown_cell_lookup_lists_cells():
    topo = Topology.hex_cluster(rings=1)
    with pytest.raises(KeyError, match="no cell 42"):
        topo.site(42)


def test_neighbours_are_everyone_else_in_id_order():
    topo = Topology.hex_cluster(rings=1)
    assert [s.cell_id for s in topo.neighbours_of(3)] == [0, 1, 2, 4, 5, 6]


def test_restrict_keeps_subset_and_rejects_unknown():
    topo = Topology.hex_cluster(rings=1)
    sub = topo.restrict([0, 2, 5])
    assert sub.cell_ids == [0, 2, 5]
    with pytest.raises(KeyError, match="unknown cell"):
        topo.restrict([0, 99])


def test_snr_decreases_with_distance():
    topo = Topology.hex_cluster(inter_site_ft=100.0, rings=1)
    site = topo.site(0)
    near = topo.snr_db_at(site, 5.0, 0.0)
    far = topo.snr_db_at(site, 50.0, 0.0)
    assert near > far


def test_ambient_seed_is_deterministic_and_per_cell():
    assert ambient_seed(3, 0) == ambient_seed(3, 0)
    assert ambient_seed(3, 0) != ambient_seed(3, 1)
    assert ambient_seed(3, 0) != ambient_seed(4, 0)


def test_prepare_ambients_one_capture_per_cell_and_reuse():
    topo = Topology.hex_cluster(inter_site_ft=100.0, rings=1, n_frames=1)
    with AmbientCache() as cache:
        ambients = topo.prepare_ambients(cache, seed=0)
        assert sorted(ambients) == topo.cell_ids
        assert cache.transmit_calls == 7
        # The same topology re-prepared hits the cache for every cell.
        again = topo.prepare_ambients(cache, seed=0)
        assert cache.transmit_calls == 7
        for cell_id in topo.cell_ids:
            assert again[cell_id] is ambients[cell_id]


def test_prepare_ambients_distinct_cells_distinct_waveforms():
    topo = Topology.hex_cluster(inter_site_ft=100.0, rings=1, n_frames=1)
    with AmbientCache() as cache:
        ambients = topo.prepare_ambients(cache, seed=0)
        assert not np.array_equal(ambients[0].unit, ambients[1].unit)
