"""Interference stage: offsets, recipes, superposition, determinism."""

import numpy as np
import pytest

from repro.cells import (
    CellAmbient,
    CellSite,
    Topology,
    neighbour_recipes,
    relative_amplitude_db,
    timing_offset_samples,
)
from repro.fleet import AmbientCache


@pytest.fixture(scope="module")
def topo():
    return Topology.hex_cluster(inter_site_ft=100.0, rings=1, n_frames=1)


@pytest.fixture(scope="module")
def ambients(topo):
    cache = AmbientCache()
    yield topo.prepare_ambients(cache, seed=0)
    cache.close()


def test_timing_offsets_are_distinct_across_a_cluster():
    samples_per_frame = 19200
    offsets = [timing_offset_samples(c, samples_per_frame) for c in range(7)]
    assert len(set(offsets)) == 7
    assert all(0 <= o < samples_per_frame for o in offsets)


def test_relative_amplitude_negative_near_serving_site(topo):
    serving = topo.site(0)
    neighbour = topo.site(1)
    rel = relative_amplitude_db(topo, serving, neighbour, 5.0, 0.0)
    assert rel < 0  # the neighbour is much farther than the serving cell


def test_recipes_sorted_by_cell_id(topo, ambients):
    serving = topo.site(0)
    recipes = neighbour_recipes(topo, serving, 5.0, 0.0, ambients)
    assert [r.cell_id for r in recipes] == [1, 2, 3, 4, 5, 6]


def test_serving_only_returns_clean_stage(topo, ambients):
    stage = CellAmbient(serving=ambients[0], neighbours=[]).load()
    np.testing.assert_array_equal(stage.unit, ambients[0].unit)


def test_superposition_adds_neighbours_and_keeps_reference_clean(topo, ambients):
    serving = topo.site(0)
    recipes = neighbour_recipes(topo, serving, 40.0, 0.0, ambients)
    stage = CellAmbient(serving=ambients[0], neighbours=recipes).load()
    # Unit waveform is interfered...
    assert not np.array_equal(stage.unit, ambients[0].unit)
    # ...but the demod reference stays the clean serving capture.
    np.testing.assert_array_equal(stage.capture.samples, ambients[0].unit)
    # And it matches the hand-built sum, in cell-id order.
    expected = np.array(ambients[0].unit, dtype=complex, copy=True)
    for recipe in recipes:
        expected += recipe.amplitude * np.roll(
            ambients[recipe.cell_id].unit, recipe.offset_samples
        )
    np.testing.assert_array_equal(stage.unit, expected)


def test_superposition_identical_from_stages_and_handles(topo, tmp_path):
    """Memory-mapped spills must reproduce the in-memory floats exactly."""
    serving_xy = (40.0, 0.0)
    serving = topo.site(0)
    with AmbientCache(scratch_dir=tmp_path) as cache:
        stages = topo.prepare_ambients(cache, seed=0)
        handles = topo.prepare_ambients(cache, seed=0, handles=True)
        via_stage = CellAmbient(
            serving=stages[0],
            neighbours=neighbour_recipes(topo, serving, *serving_xy, stages),
        ).load()
        via_handle = CellAmbient(
            serving=handles[0],
            neighbours=neighbour_recipes(topo, serving, *serving_xy, handles),
        ).load()
        np.testing.assert_array_equal(via_stage.unit, via_handle.unit)


def test_length_mismatch_raises_actionable_error(topo, ambients):
    other = Topology.explicit(
        [CellSite(9, 0.0, 0.0, n_frames=2)], venue=topo.venue
    )
    with AmbientCache() as cache:
        long_ambient = other.prepare_ambients(cache, seed=0)[9]
        recipes = neighbour_recipes(topo, topo.site(0), 5.0, 0.0, ambients)
        bad = [
            type(recipes[0])(
                cell_id=9,
                ambient=long_ambient,
                amplitude=0.5,
                offset_samples=0,
            )
        ]
        with pytest.raises(ValueError, match="equal-length captures"):
            CellAmbient(serving=ambients[0], neighbours=bad).load()
