"""Batched cross-tag demodulation: bit-identity to the per-tag loop.

``demodulate_many`` stacks every tag riding one shared ambient into a
single batched FFT pass; its contract is *exact* equality with calling
``demodulate`` per tag — same bits, same soft values, same packet
records, down to the float.  These tests exercise tags with different
sync errors, path gains, and noise levels (so post-eq, predistort, and
erased model choices all occur across the stack) and assert that
contract.
"""

import numpy as np
import pytest

from repro.bsrx.demodulator import BackscatterDemodulator
from repro.lte import LteTransmitter
from repro.tag.controller import TagController
from repro.tag.modulator import ChipModulator
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng

#: Per-tag (sync error in samples, flat path gain, SNR dB) — spread wide
#: enough that different tags pick different demod models.
_TAG_MIX = (
    (-12, 0.9 * np.exp(0.3j), 30.0),
    (0, 1.1 * np.exp(-1.0j), 18.0),
    (7, 0.5 * np.exp(2.2j), 8.0),
    (15, 1.0, 2.0),
)


def _stacks(n_tags, n_frames=2, seed=0):
    capture = LteTransmitter(1.4, rng=seed).transmit(n_frames)
    params = capture.params
    ambient = np.asarray(capture.samples, dtype=complex)
    rows = []
    for t in range(n_tags):
        error, gain, snr = _TAG_MIX[t % len(_TAG_MIX)]
        controller = TagController(params)
        payload = make_rng(100 + t).integers(0, 2, size=20000).astype(np.int8)
        timing = controller.genie_timing(0, error)
        schedule = controller.build_schedule(timing, len(ambient), payload)
        hybrid = gain * ChipModulator().reflect(ambient, schedule.chips)
        rows.append(awgn(hybrid, snr, make_rng(200 + t)))
    shifted = np.stack(rows)
    reference = np.stack([ambient] * n_tags)
    half = params.samples_per_frame // 2
    halves = np.arange(0, shifted.shape[1] - half + 1, half)
    return params, shifted, reference, halves


def _assert_same(a, b):
    np.testing.assert_array_equal(a.bits, b.bits)
    np.testing.assert_array_equal(a.soft, b.soft)
    np.testing.assert_array_equal(a.starts, b.starts)
    assert list(a.window_erased) == list(b.window_erased)
    assert len(a.packets) == len(b.packets)
    for pa, pb in zip(a.packets, b.packets):
        assert pa.half_frame_start == pb.half_frame_start
        assert pa.slot == pb.slot
        assert pa.offset == pb.offset
        assert pa.model == pb.model
        assert pa.preamble_errors == pb.preamble_errors
        assert pa.gain == pb.gain
        assert pa.metric == pb.metric
        assert list(pa.data_starts) == list(pb.data_starts)


@pytest.mark.parametrize("erasure_threshold", [None, 0.35])
def test_batched_matches_per_tag(erasure_threshold):
    params, shifted, reference, halves = _stacks(4)
    demod = BackscatterDemodulator(params, erasure_threshold=erasure_threshold)
    batched = demod.demodulate_many(shifted, reference, halves)
    for t in range(shifted.shape[0]):
        serial = demod.demodulate(shifted[t], reference[t], halves)
        _assert_same(serial, batched[t])


def test_batched_models_actually_diverge():
    """The mix must exercise more than one demod model, otherwise the
    equality test above proves less than it claims."""
    params, shifted, reference, halves = _stacks(4)
    demod = BackscatterDemodulator(params, erasure_threshold=0.35)
    results = demod.demodulate_many(shifted, reference, halves)
    models = {p.model for r in results for p in r.packets}
    assert len(models) > 1, models


def test_batched_matches_per_tag_on_truncated_capture():
    """The scalar fallback for a partial trailing half-frame stays
    bit-identical too (the batch path hands those to the per-tag core)."""
    params, shifted, reference, halves = _stacks(3)
    half = params.samples_per_frame // 2
    cut = shifted.shape[1] - half + 2 * half // 3
    halves = np.arange(0, cut, half)
    demod = BackscatterDemodulator(params)
    batched = demod.demodulate_many(
        shifted[:, :cut], reference[:, :cut], halves
    )
    for t in range(shifted.shape[0]):
        serial = demod.demodulate(shifted[t, :cut], reference[t, :cut], halves)
        _assert_same(serial, batched[t])
    assert any(any(r.window_erased) for r in batched)


def test_single_tag_stack_matches_scalar_call():
    params, shifted, reference, halves = _stacks(1)
    demod = BackscatterDemodulator(params)
    (batched,) = demod.demodulate_many(shifted, reference, halves)
    _assert_same(demod.demodulate(shifted[0], reference[0], halves), batched)


def test_per_row_grids_match_per_tag_calls():
    """One grid per row (each tag's owned half-frames, a non-contiguous
    set and an empty one included) equals one-row ``demodulate`` calls,
    whether the rows come stacked or as a list."""
    params, shifted, reference, halves = _stacks(4)
    grids = [halves[[0, 3]], halves[[1]], halves[:0], halves]
    demod = BackscatterDemodulator(params, erasure_threshold=0.35)
    stacked = demod.demodulate_many(shifted, reference, grids)
    listed = demod.demodulate_many(list(shifted), list(reference), grids)
    for t, grid in enumerate(grids):
        serial = demod.demodulate(shifted[t], reference[t], grid)
        _assert_same(serial, stacked[t])
        _assert_same(serial, listed[t])
        assert {p.half_frame_start for p in stacked[t].packets} == set(grid.tolist())


def test_per_row_grid_count_validated():
    demod = BackscatterDemodulator(1.4)
    with pytest.raises(ValueError, match="one half-frame grid per row"):
        demod.demodulate_many(
            np.zeros((2, 10), complex), np.zeros((2, 10), complex), [[0]]
        )


def test_batched_shape_validation():
    demod = BackscatterDemodulator(1.4)
    with pytest.raises(ValueError):
        demod.demodulate_many(
            np.zeros(10, complex), np.zeros(10, complex), [0]
        )
    with pytest.raises(ValueError):
        demod.demodulate_many(
            np.zeros((2, 10), complex), np.zeros((2, 9), complex), [0]
        )
