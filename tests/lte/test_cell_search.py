"""Cell-search tests."""

import importlib

import numpy as np
import pytest

from repro.lte import CellConfig, LteTransmitter, cell_search
from repro.lte.cell_search import (
    PssCandidate,
    correlate_pss,
    pss_candidates,
    rank_candidates,
)
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def capture():
    cell = CellConfig(n_id_1=23, n_id_2=1)
    return LteTransmitter(1.4, cell=cell, rng=0).transmit(2)


def test_correlation_peaks_at_pss(capture):
    metric = correlate_pss(capture.samples, capture.params, 1)
    peak = int(np.argmax(metric))
    assert peak in (
        capture.params.useful_start(0, 6),
        capture.params.useful_start(10, 6),
        capture.params.useful_start(0, 6) + capture.params.samples_per_frame,
        capture.params.useful_start(10, 6) + capture.params.samples_per_frame,
    )


def test_wrong_root_correlates_weakly(capture):
    right = correlate_pss(capture.samples, capture.params, 1).max()
    wrong = correlate_pss(capture.samples, capture.params, 0).max()
    assert right > 1.5 * wrong


def test_full_search_identifies_cell(capture):
    result = cell_search(capture.samples, capture.params)
    assert result.n_id_2 == 1
    assert result.n_id_1 == 23
    assert result.cell_id == 3 * 23 + 1


def test_frame_start_with_offset(capture):
    shifted = np.concatenate([np.zeros(777, complex), capture.samples])
    result = cell_search(shifted, capture.params)
    half = capture.params.samples_per_frame // 2
    assert (result.frame_start - 777) % half == 0


def test_search_survives_noise(capture):
    rng = make_rng(1)
    noisy = awgn(capture.samples, 0.0, rng)  # 0 dB SNR
    result = cell_search(noisy, capture.params)
    assert (result.n_id_2, result.n_id_1) == (1, 23)


def test_search_survives_phase_rotation(capture):
    rotated = capture.samples * np.exp(1j * 1.2)
    result = cell_search(rotated, capture.params)
    assert (result.n_id_2, result.n_id_1) == (1, 23)


def test_search_on_short_capture_raises(capture):
    with pytest.raises(ValueError):
        correlate_pss(np.zeros(10, complex), capture.params, 0)


def test_all_three_roots_detectable():
    for nid2 in (0, 1, 2):
        cap = LteTransmitter(1.4, cell=CellConfig(n_id_2=nid2), rng=nid2).transmit(1)
        result = cell_search(cap.samples, cap.params)
        assert result.n_id_2 == nid2


# -- deterministic candidate ordering ---------------------------------------------


def test_rank_candidates_tie_goes_to_lower_root():
    # Metrics separated only by float residue count as tied: root index
    # (i.e. cell ID) breaks the tie, so root 0 wins despite the epsilon.
    tied = [
        PssCandidate(n_id_2=2, offset=100, metric=1.0),
        PssCandidate(n_id_2=0, offset=200, metric=1.0 - 1e-12),
        PssCandidate(n_id_2=1, offset=300, metric=1.0 + 1e-13),
    ]
    ranked = rank_candidates(tied)
    assert [c.n_id_2 for c in ranked] == [0, 1, 2]


def test_rank_candidates_real_margin_beats_identity():
    candidates = [
        PssCandidate(n_id_2=0, offset=0, metric=0.4),
        PssCandidate(n_id_2=2, offset=0, metric=0.9),
    ]
    ranked = rank_candidates(candidates)
    assert [c.n_id_2 for c in ranked] == [2, 0]
    # A margin just above the tolerance is also decisive.
    close = [
        PssCandidate(n_id_2=0, offset=0, metric=1.0),
        PssCandidate(n_id_2=2, offset=0, metric=1.0 + 1e-6),
    ]
    assert rank_candidates(close)[0].n_id_2 == 2


def test_rank_candidates_empty_and_custom_tolerance(monkeypatch):
    assert rank_candidates([]) == []
    pair = [
        PssCandidate(n_id_2=1, offset=0, metric=1.0),
        PssCandidate(n_id_2=0, offset=0, metric=0.999),
    ]
    # Default tolerance: the 1e-3 gap is decisive.
    assert rank_candidates(pair)[0].n_id_2 == 1
    # A coarse tolerance collapses it into a tie; lower root wins.
    # (``repro.lte.cell_search`` is also the name of the search function.)
    module = importlib.import_module("repro.lte.cell_search")
    monkeypatch.setattr(module, "PSS_TIE_TOLERANCE", 1e-2)
    assert rank_candidates(pair)[0].n_id_2 == 0


def test_superposed_near_equal_cells_search_deterministically():
    """Regression: two equal-power cells in one capture must always rank
    the same way, and cell_search must return pss_candidates()[0]."""
    cap_a = LteTransmitter(1.4, cell=CellConfig(n_id_1=7, n_id_2=1), rng=3).transmit(1)
    cap_b = LteTransmitter(1.4, cell=CellConfig(n_id_1=7, n_id_2=2), rng=4).transmit(1)
    mixture = cap_a.samples + cap_b.samples
    first = pss_candidates(mixture, cap_a.params)
    again = pss_candidates(mixture, cap_a.params)
    assert first == again
    assert [c.n_id_2 for c in first] == [c.n_id_2 for c in again]
    result = cell_search(mixture, cap_a.params)
    assert result.n_id_2 == first[0].n_id_2
    assert result.n_id_2 in (1, 2)  # one of the transmitted roots wins
