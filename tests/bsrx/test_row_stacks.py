"""Stacked receiver helpers stay row-for-row bit-identical at any size.

numpy elides temporaries of 256 KiB or more: ``y * np.conj(e)`` then runs
in place as ``np.conj(e) *= y``, and complex multiply is not bitwise
commutative, so a large stack used to drift from its rows in the last
ulp.  A 300 x 128 complex stack (600 KiB) crosses that size; each helper
must return exactly what it returns row by row.
"""

import numpy as np
import pytest

from repro.bsrx.demodulator import window_snr_db
from repro.bsrx.equalizer import equalize_symbol, estimate_channel_from_known
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


def test_window_snr_stack_matches_rows(stacks):
    y, x = stacks
    soft, power = y.real, np.abs(x) ** 2
    rows = [window_snr_db(s, p) for s, p in zip(soft, power)]
    np.testing.assert_array_equal(window_snr_db(soft, power), rows)
    assert window_snr_db(np.zeros((2, 0))).tolist() == [-np.inf, -np.inf]
