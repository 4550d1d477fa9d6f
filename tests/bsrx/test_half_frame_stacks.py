"""Stacked kernel calls equal one one-row kernel call per half-frame.

``demodulate_many`` sorts its (row, half-frame) pairs by start and runs
them through the kernel in groups of up to ``STACK_SAMPLE_BUDGET //
half_frame_span`` equal-length slices: 3 at 1.4 MHz, 1 from 3 MHz up.
One row's consecutive half-frames are one strided view of that row, any
other group an ``np.stack``, and a shorter trailing half-frame runs alone.
Each half-frame re-sounds the cascade and stands alone, so the grouping
must not change a bit: every result here equals the merge of one
``demodulate`` call per (row, half-frame), each a one-row kernel call.
"""

import numpy as np
import pytest

from repro.bsrx.demodulator import (
    STACK_SAMPLE_BUDGET,
    BackscatterDemodulator,
    BsDemodResult,
)
from repro.lte.params import SUPPORTED_BANDWIDTHS_MHZ

from tests.bsrx.test_batch_demod import _assert_same, _stacks
from tests.bsrx.test_demod_golden import _mix


@pytest.fixture
def kernel_calls(monkeypatch):
    """Each kernel call's ``(bases, shifted stack)``, in call order."""
    calls = []
    kernel = BackscatterDemodulator._demod_half_frame

    def spy(self, shifted, reference, sinks, bases):
        calls.append((list(bases), shifted))
        return kernel(self, shifted, reference, sinks, bases)

    monkeypatch.setattr(BackscatterDemodulator, "_demod_half_frame", spy)
    return calls


def _one_call_per_half_frame(demod, shifted, reference, grid):
    """``demodulate`` one half-frame at a time, merged into one result."""
    parts = [demod.demodulate(shifted, reference, [start]) for start in grid]
    return BsDemodResult(
        bits=np.concatenate([np.zeros(0, np.int8)] + [p.bits for p in parts]),
        soft=np.concatenate([np.zeros(0)] + [p.soft for p in parts]),
        starts=np.concatenate([np.zeros(0, np.int64)] + [p.starts for p in parts]),
        window_bits=[bits for p in parts for bits in p.window_bits],
        window_erased=[flag for p in parts for flag in p.window_erased],
        packets=[packet for p in parts for packet in p.packets],
    )


def _assert_exact(demod, shifted, reference, grids, results):
    for t, (grid, result) in enumerate(zip(grids, results)):
        expected = _one_call_per_half_frame(demod, shifted[t], reference[t], grid)
        _assert_same(expected, result)
        assert len(expected.window_bits) == len(result.window_bits)
        for a, b in zip(expected.window_bits, result.window_bits):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("bandwidth", SUPPORTED_BANDWIDTHS_MHZ)
def test_budget_stacks_three_half_frames_at_1p4_mhz_and_one_above(bandwidth):
    span = BackscatterDemodulator(bandwidth).half_frame_span
    assert max(1, STACK_SAMPLE_BUDGET // span) == (3 if bandwidth == 1.4 else 1)


def test_clean_capture_runs_three_half_frames_per_view(kernel_calls):
    """8 half-frames of one row: calls of 3, 3 and 2, each a view."""
    params, shifted, reference, halves = _stacks(1, n_frames=4)
    demod = BackscatterDemodulator(params)
    results = demod.demodulate_many(shifted, reference, [halves])
    calls = list(kernel_calls)
    _assert_exact(demod, shifted, reference, [halves], results)
    starts = halves.tolist()
    assert [bases for bases, _ in calls] == [starts[:3], starts[3:6], starts[6:]]
    for _, stack in calls:
        assert stack.shape[1] == demod.half_frame_span
        assert np.shares_memory(stack, shifted)


def test_truncated_tail_runs_in_a_call_of_its_own(kernel_calls):
    params, shifted, reference, _ = _stacks(1)
    half = params.samples_per_frame // 2
    cut = shifted.shape[1] - half + 2 * half // 3
    halves = np.arange(0, cut, half)
    demod = BackscatterDemodulator(params, erasure_threshold=0.35)
    results = demod.demodulate_many(shifted[:, :cut], reference[:, :cut], [halves])
    calls = list(kernel_calls)
    _assert_exact(demod, shifted[:, :cut], reference[:, :cut], [halves], results)
    assert [bases for bases, _ in calls] == [halves[:3].tolist(), halves[3:].tolist()]
    assert calls[-1][1].shape[1] == cut - halves[-1] < demod.half_frame_span
    assert any(results[0].window_erased)


@pytest.mark.parametrize(
    "owned, expected_calls",
    [
        # One row, non-adjacent half-frames: a copied stack, not a view.
        ([[0, 3]], [[0, 3]]),
        # Two rows, row 0 owning {0, 3}: a mixed stack, then one view.
        ([[0, 3], [1, 2]], [[0, 1, 2], [3]]),
        # Half-frames 2 and 3 owned by both rows.
        ([[0, 1, 2, 3], [2, 3]], [[0, 1, 2], [2, 3, 3]]),
    ],
    ids=["one-row-gap", "two-rows-gap", "shared"],
)
def test_row_grids_match_one_call_per_half_frame(owned, expected_calls, kernel_calls):
    params, shifted, reference, halves = _stacks(len(owned))
    grids = [halves[rows] for rows in owned]
    demod = BackscatterDemodulator(params, erasure_threshold=0.35)
    results = demod.demodulate_many(shifted, reference, grids)
    calls = list(kernel_calls)
    _assert_exact(demod, shifted, reference, grids, results)
    assert [bases for bases, _ in calls] == [
        halves[rows].tolist() for rows in expected_calls
    ]


def test_models_diverge_across_the_row_grids():
    """The grids above exercise more than one packet model."""
    params, shifted, reference, halves = _stacks(2)
    demod = BackscatterDemodulator(params, erasure_threshold=0.35)
    results = demod.demodulate_many(shifted, reference, halves)
    assert len({p.model for r in results for p in r.packets}) > 1


def test_ten_mhz_runs_one_half_frame_per_call(kernel_calls):
    params, shifted, reference = _mix(10.0)
    halves = np.arange(0, shifted.shape[1], params.samples_per_frame // 2)
    BackscatterDemodulator(params).demodulate(shifted[0], reference[0], halves)
    assert [bases for bases, _ in kernel_calls] == [[s] for s in halves.tolist()]
