"""Link-metric tests."""

import numpy as np
import pytest

from repro.core.metrics import BerBreakdown, LinkReport, align_windows, measure_link
from repro.tag.controller import ChipSchedule, ChipWindow


def _window(start, bits, kind="data"):
    bits = np.asarray(bits, dtype=np.int8)
    return ChipWindow(start=start, n_chips=len(bits), kind=kind, bits=bits)


class _FakeDemod:
    def __init__(self, starts, window_bits):
        self.starts = np.asarray(starts, dtype=np.int64)
        self.window_bits = [np.asarray(b, dtype=np.int8) for b in window_bits]


def test_report_ber_and_throughput():
    report = LinkReport(n_bits=1000, n_errors=10, duration_seconds=0.001)
    assert report.ber == pytest.approx(0.01)
    assert report.throughput_bps == pytest.approx(990_000)


def test_report_empty():
    report = LinkReport(n_bits=0, n_errors=0, duration_seconds=0.0)
    assert np.isnan(report.ber)
    assert report.throughput_bps == 0.0


def test_align_exact_positions():
    schedule = [_window(100, [1, 0]), _window(200, [0, 1])]
    pairs = align_windows(schedule, [100, 200], tolerance=5)
    assert pairs == [(0, 0), (1, 1)]


def test_align_skips_preambles():
    schedule = [_window(50, [1], kind="preamble"), _window(100, [1, 0])]
    pairs = align_windows(schedule, [100], tolerance=5)
    assert pairs == [(1, 0)]


def test_align_tolerance_exceeded_is_lost():
    schedule = [_window(100, [1, 0])]
    pairs = align_windows(schedule, [200], tolerance=5)
    assert pairs == [(0, None)]


def test_align_empty_demod_starts_loses_every_window():
    schedule = [_window(100, [1, 0]), _window(200, [0, 1])]
    pairs = align_windows(schedule, [], tolerance=5)
    assert pairs == [(0, None), (1, None)]


def test_align_empty_schedule_returns_no_pairs():
    assert align_windows([], [100, 200], tolerance=5) == []


def test_align_exact_tolerance_boundary_matches():
    schedule = [_window(100, [1, 0])]
    # A delta of exactly `tolerance` is inclusive...
    assert align_windows(schedule, [105], tolerance=5) == [(0, 0)]
    assert align_windows(schedule, [95], tolerance=5) == [(0, 0)]
    # ...one sample past it is lost.
    assert align_windows(schedule, [106], tolerance=5) == [(0, None)]


def test_align_picks_nearest_candidate():
    schedule = [_window(100, [1, 0])]
    pairs = align_windows(schedule, [90, 99, 130], tolerance=5)
    assert pairs == [(0, 1)]


def test_align_one_to_one_no_duplicate_demod_claim():
    """Regression: two schedule windows must not share one demod window.

    The old per-window argmin let the single demod window at 103 satisfy
    both schedule windows, silently masking that one window was lost.
    """
    schedule = [_window(100, [1, 0]), _window(104, [0, 1])]
    pairs = align_windows(schedule, [103, 180], tolerance=5)
    assert pairs == [(0, None), (1, 0)]


def test_align_one_to_one_prefers_globally_nearest():
    # Window 104 is nearer to demod 103 (delta 1) than window 100
    # (delta 3), so it wins the contested demod window.
    schedule = [_window(100, [1, 0]), _window(104, [0, 1]), _window(200, [1, 1])]
    pairs = align_windows(schedule, [103, 201], tolerance=5)
    assert pairs == [(0, None), (1, 0), (2, 1)]


def test_align_contention_resolves_to_distinct_windows():
    # Both schedule windows are within tolerance of both demod windows;
    # one-to-one matching must hand each its own (nearest available).
    schedule = [_window(100, [1]), _window(102, [0])]
    pairs = align_windows(schedule, [101, 103], tolerance=5)
    assert pairs == [(0, 0), (1, 1)]


def test_measure_ber_counts_errors():
    schedule = ChipSchedule(
        chips=np.ones(1, np.int8),
        windows=[_window(10, [1, 0, 1, 0]), _window(20, [1, 1, 1, 1])],
    )
    demod = _FakeDemod([10, 20], [[1, 0, 0, 0], [1, 1, 1, 1]])
    assert measure_link(schedule, demod, 3) == BerBreakdown(
        n_bits=8, n_errors=1, n_windows=2, n_lost=0
    )


def test_measure_ber_lost_window_fully_errored():
    schedule = ChipSchedule(
        chips=np.ones(1, np.int8), windows=[_window(10, [1, 0, 1])]
    )
    demod = _FakeDemod([500], [[1, 0, 1]])
    counts = measure_link(schedule, demod, 3)
    assert (counts.n_bits, counts.n_errors, counts.n_lost) == (3, 3, 1)


def test_measure_ber_length_mismatch_is_lost():
    schedule = ChipSchedule(
        chips=np.ones(1, np.int8), windows=[_window(10, [1, 0, 1])]
    )
    demod = _FakeDemod([10], [[1, 0]])
    counts = measure_link(schedule, demod, 3)
    assert (counts.n_errors, counts.n_lost) == (3, 1)


def test_measure_ber_mismatched_window_counts_all_bits_lost():
    # A longer-than-sent demod window is just as lost as a shorter one:
    # every sent bit counts as errored, not only the overlap.
    schedule = ChipSchedule(
        chips=np.ones(1, np.int8),
        windows=[_window(10, [1, 0, 1, 0]), _window(20, [1, 1])],
    )
    demod = _FakeDemod([10, 20], [[1, 0, 1, 0, 1, 1], [1, 1]])
    assert measure_link(schedule, demod, 3) == BerBreakdown(
        n_bits=6, n_errors=4, n_windows=2, n_lost=1
    )


def test_measure_ber_duplicate_demod_window_counts_lost():
    """Lost-window accounting must not be masked by a shared demod window.

    Two sent windows but only one demodulated: the old alignment matched
    both against it (zero lost, half the errors), undercounting.
    """
    schedule = ChipSchedule(
        chips=np.ones(1, np.int8),
        windows=[_window(10, [1, 0, 1]), _window(14, [1, 0, 1])],
    )
    demod = _FakeDemod([13], [[1, 0, 1]])
    assert measure_link(schedule, demod, 5) == BerBreakdown(
        n_bits=6, n_errors=3, n_windows=2, n_lost=1
    )


def test_measure_ber_no_demod_windows_at_all():
    schedule = ChipSchedule(
        chips=np.ones(1, np.int8), windows=[_window(10, [1, 0, 1])]
    )
    demod = _FakeDemod([], [])
    assert measure_link(schedule, demod, 3) == BerBreakdown(
        n_bits=3, n_errors=3, n_windows=1, n_lost=1
    )
