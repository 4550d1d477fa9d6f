"""Attach pipeline: SNR ranking, tie-breaks, and IQ-verified cell search."""

import pytest

from repro.cells import CellSite, Topology, attach, rank_cells, search_attach
from repro.fleet import AmbientCache
from repro.lte.cell_search import cell_search


@pytest.fixture(scope="module")
def topo():
    return Topology.hex_cluster(inter_site_ft=100.0, rings=1, n_frames=1)


def test_rank_orders_by_post_pathloss_snr(topo):
    # Near cell 1 at (100, 0): cell 1 first, centre cell second.
    ranked = rank_cells(topo, 90.0, 0.0)
    assert ranked[0].cell_id == 1
    assert ranked[0].snr_db > ranked[1].snr_db
    assert len(ranked) == topo.n_cells


def test_equidistant_tie_goes_to_lower_cell_id():
    topo = Topology(
        [CellSite(4, 0.0, 0.0), CellSite(2, 60.0, 0.0)]
    )
    # Exactly mid-way between two identical sites: identical SNR.
    ranked = rank_cells(topo, 30.0, 0.0)
    assert ranked[0].snr_db == pytest.approx(ranked[1].snr_db)
    assert ranked[0].cell_id == 2  # lower id wins the tie
    decision = attach(topo, "t", 30.0, 0.0)
    assert decision.serving_cell_id == 2


def test_attach_serves_top_ranked_cell(topo):
    decision = attach(topo, "t", 90.0, 0.0)
    assert decision.serving_cell_id == rank_cells(topo, 90.0, 0.0)[0].cell_id
    assert decision.serving.cell_id == decision.serving_cell_id
    assert not decision.verified  # analytic mode never claims IQ proof


def test_search_attach_matches_analytic_top_across_mixed_snr(topo):
    """Acceptance: every tag camps on the cell cell_search ranks highest."""
    with AmbientCache() as cache:
        ambients = topo.prepare_ambients(cache, seed=0)
        # Mixed-SNR positions: near the centre, near ring cells, between.
        positions = [(5.0, 5.0), (90.0, 0.0), (-40.0, 75.0), (30.0, -20.0)]
        for x, y in positions:
            decision = search_attach(topo, "t", x, y, ambients)
            analytic_top = rank_cells(topo, x, y)[0].cell_id
            assert decision.searched_cell_id == analytic_top
            assert decision.serving_cell_id == analytic_top
            assert decision.verified


def test_search_attach_runs_cell_search_over_the_superposition(topo):
    """The searched identity is literally cell_search on the mixture."""
    from repro.cells.interference import CellAmbient, neighbour_recipes

    with AmbientCache() as cache:
        ambients = topo.prepare_ambients(cache, seed=0)
        x, y = 90.0, 0.0
        best = rank_cells(topo, x, y)[0]
        recipes = neighbour_recipes(topo, topo.site(best.cell_id), x, y, ambients)
        stage = CellAmbient(serving=ambients[best.cell_id], neighbours=recipes).load()
        direct = cell_search(stage.unit, stage.capture.params)
        decision = search_attach(topo, "t", x, y, ambients)
        assert decision.searched_cell_id == direct.cell_id


def test_serving_property_raises_on_unknown_cell(topo):
    decision = attach(topo, "t", 5.0, 5.0)
    with pytest.raises(KeyError):
        type(decision)(
            tag="t", x_ft=0.0, y_ft=0.0, serving_cell_id=99,
            candidates=decision.candidates,
        ).serving
