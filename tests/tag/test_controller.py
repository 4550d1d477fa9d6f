"""Tag scheduler invariants — the heart of challenge C1."""

import numpy as np
import pytest

from repro.lte.params import LteParams
from repro.tag.controller import ChipSchedule, TagController
from repro.utils.rng import make_rng


@pytest.fixture
def controller():
    return TagController(LteParams.from_bandwidth(1.4))


def _schedule(controller, error=0, payload_len=5000, n_frames=2):
    params = controller.params
    timing = controller.genie_timing(0, error)
    payload = make_rng(1).integers(0, 2, size=payload_len).astype(np.int8)
    return controller.build_schedule(
        timing, n_frames * params.samples_per_frame, payload
    )


def test_chips_are_pm_one(controller):
    schedule = _schedule(controller)
    assert set(np.unique(schedule.chips)) <= {-1, 1}


def test_sync_symbols_never_modulated(controller):
    """The PSS/SSS samples must pass through with constant chips (+1)."""
    params = controller.params
    schedule = _schedule(controller, payload_len=100_000)
    half = params.samples_per_frame // 2
    for half_index in range(4):
        for sym in (5, 6):  # SSS, PSS of the sync slot
            start = half_index * half + params.symbol_start(0, sym)
            end = start + params.symbol_length(sym)
            assert np.all(schedule.chips[start:end] == 1), (half_index, sym)


def test_chips_avoid_cyclic_prefixes(controller):
    params = controller.params
    schedule = _schedule(controller, payload_len=100_000)
    half = params.samples_per_frame // 2
    modulated = schedule.chips == -1
    for half_index in range(2):
        for slot in range(10):
            for sym in range(7):
                start = half_index * half + params.symbol_start(slot, sym)
                cp_end = start + params.cp_length(sym)
                assert not np.any(modulated[start:cp_end]), (slot, sym)


def test_windows_centred_in_useful_symbol(controller):
    params = controller.params
    schedule = _schedule(controller)
    guard = (params.fft_size - params.n_subcarriers) // 2
    for window in schedule.windows:
        # Window start is useful_start + guard for zero timing error.
        offset = window.start % params.samples_per_slot
        assert window.n_chips == params.n_subcarriers
    assert guard == controller.chip_offset


def test_timing_error_shifts_all_windows(controller):
    base = _schedule(controller, error=0)
    shifted = _schedule(controller, error=3)
    for a, b in zip(base.windows, shifted.windows):
        assert b.start - a.start == 3


def test_payload_bits_recoverable_from_windows(controller):
    payload = make_rng(2).integers(0, 2, size=1000).astype(np.int8)
    timing = controller.genie_timing(0, 0)
    schedule = controller.build_schedule(
        timing, 2 * controller.params.samples_per_frame, payload
    )
    data_bits = np.concatenate(
        [w.bits for w in schedule.windows if w.kind == "data"]
    )
    assert np.array_equal(data_bits[:1000], payload)


def test_preamble_first_in_every_packet(controller):
    schedule = _schedule(controller)
    kinds = [w.kind for w in schedule.windows]
    # Pattern: preamble followed by data windows, repeating.
    assert kinds[0] == "preamble"
    for i, kind in enumerate(kinds):
        if kind == "preamble" and i > 0:
            assert kinds[i - 1] == "data"


def test_half_frame_count(controller):
    schedule = _schedule(controller, n_frames=3)
    assert schedule.n_half_frames == 6


def test_negative_timing_skips_partial_half(controller):
    params = controller.params
    timing = controller.genie_timing(0, -params.samples_per_frame // 4)
    schedule = controller.build_schedule(
        timing, params.samples_per_frame, np.ones(10, np.int8)
    )
    assert all(w.start >= 0 for w in schedule.windows)


def test_chips_length_matches_capture(controller):
    n = controller.params.samples_per_frame
    schedule = controller.build_schedule(
        controller.genie_timing(0, 0), n, np.ones(5, np.int8)
    )
    assert len(schedule.chips) == n
