"""Stacked receiver helpers stay row-for-row bit-identical at any size.

numpy elides temporaries of 256 KiB or more: ``y * np.conj(e)`` then runs
in place as ``np.conj(e) *= y``, and complex multiply is not bitwise
commutative, so a large stack used to drift from its rows in the last
ulp.  A 300 x 128 complex stack (600 KiB) crosses that size; each helper
must return exactly what it returns row by row.
"""

import numpy as np
import pytest

from repro.bsrx.demodulator import _at_offsets, window_snr_db
from repro.bsrx.equalizer import (
    _circular_smooth_rows,
    channel_from_spectra,
    equalize_symbol,
    equalizer_weights,
    estimate_channel_from_known,
)
from repro.bsrx.mod_offset import find_modulation_offset
from repro.utils.rng import make_rng

SHAPE = (300, 128)


@pytest.fixture(scope="module")
def stacks():
    rng = make_rng(3)
    y = rng.normal(size=SHAPE) + 1j * rng.normal(size=SHAPE)
    x = rng.normal(size=SHAPE) + 1j * rng.normal(size=SHAPE)
    assert y.nbytes >= 256 * 1024
    return y, x


def test_channel_estimate_stack_matches_rows(stacks):
    y, x = stacks
    rows = np.stack([estimate_channel_from_known(a, b) for a, b in zip(y, x)])
    np.testing.assert_array_equal(estimate_channel_from_known(y, x), rows)


def test_equalize_stack_matches_rows(stacks):
    y, x = stacks
    channel = estimate_channel_from_known(y, x)
    rows = np.stack([equalize_symbol(a, h) for a, h in zip(y, channel)])
    np.testing.assert_array_equal(equalize_symbol(y, channel), rows)


def test_offset_search_stack_matches_rows(stacks):
    y, x = stacks
    preamble = make_rng(4).integers(0, 2, size=72).astype(np.int8)
    stack = find_modulation_offset(y, x, preamble, 28, 28)
    for k, (a, b) in enumerate(zip(y, x)):
        row = find_modulation_offset(a, b, preamble, 28, 28)
        assert (row.offset, row.gain, row.metric) == (
            stack.offset[k],
            stack.gain[k],
            stack.metric[k],
        )
    # Leading axes are kept: a (3, 100) grid of symbols gives (3, 100).
    grid = find_modulation_offset(
        y.reshape(3, 100, -1), x.reshape(3, 100, -1), preamble, 28, 28
    )
    np.testing.assert_array_equal(grid.offset, stack.offset.reshape(3, 100))


def test_smoothing_stack_matches_rows(stacks):
    y, x = stacks
    for values in (y, np.abs(x) ** 2):
        rows = np.stack([_circular_smooth_rows(row) for row in values])
        np.testing.assert_array_equal(_circular_smooth_rows(values), rows)


def test_spectra_channel_and_weights_stack_match_rows(stacks):
    y, x = stacks
    rows = np.stack([channel_from_spectra(a, b) for a, b in zip(y, x)])
    channel = channel_from_spectra(y, x)
    np.testing.assert_array_equal(channel, rows)
    rows = np.stack([equalizer_weights(h) for h in channel])
    np.testing.assert_array_equal(equalizer_weights(channel), rows)


def test_hypothesis_stack_search_matches_separate_calls(stacks):
    """The kernel searches both hypotheses as one broadcast stack."""
    y, x = stacks
    preamble = make_rng(4).integers(0, 2, size=72).astype(np.int8)
    w = x[::-1]
    both = find_modulation_offset(
        np.broadcast_to(y, (2,) + y.shape), np.stack((x, w)), preamble, 28, 28
    )
    for k, expected in enumerate((x, w)):
        alone = find_modulation_offset(y, expected, preamble, 28, 28)
        np.testing.assert_array_equal(both.offset[k], alone.offset)
        np.testing.assert_array_equal(both.gain[k], alone.gain)
        np.testing.assert_array_equal(both.metric[k], alone.metric)


def test_offset_gather_matches_slices(stacks):
    y, _ = stacks
    offsets = make_rng(6).integers(0, 57, size=len(y))
    rows = np.stack([row[o : o + 72] for row, o in zip(y, offsets)])
    np.testing.assert_array_equal(_at_offsets(y, offsets, 72), rows)
    grid = _at_offsets(y.reshape(3, 100, -1), offsets.reshape(3, 100), 72)
    np.testing.assert_array_equal(grid, rows.reshape(3, 100, 72))


def test_window_snr_stack_matches_rows(stacks):
    y, x = stacks
    soft, power = y.real, np.abs(x) ** 2
    rows = [window_snr_db(s, p) for s, p in zip(soft, power)]
    np.testing.assert_array_equal(window_snr_db(soft, power), rows)
    assert window_snr_db(np.zeros((2, 0))).tolist() == [-np.inf, -np.inf]
