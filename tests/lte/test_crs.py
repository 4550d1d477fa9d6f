"""Cell-specific reference signal tests."""

import numpy as np
import pytest

from repro.lte.crs import (
    crs_c_init,
    crs_positions,
    crs_subcarrier_offset,
    crs_values,
)


def test_positions_every_sixth_subcarrier():
    cols = crs_positions(0, cell_id=0, n_rb=6)
    assert len(cols) == 12
    assert np.all(np.diff(cols) == 6)


def test_frequency_shift_follows_cell_id():
    # v_shift = cell_id mod 6 on symbol 0.
    for cell_id in range(12):
        cols = crs_positions(0, cell_id, n_rb=6)
        assert cols[0] == cell_id % 6


def test_symbol4_offset_by_three():
    a = crs_positions(0, cell_id=0, n_rb=6)[0]
    b = crs_positions(4, cell_id=0, n_rb=6)[0]
    assert (b - a) % 6 == 3


def test_non_crs_symbol_rejected():
    with pytest.raises(ValueError):
        crs_subcarrier_offset(2, 0)


def test_values_unit_power_qpsk():
    values = crs_values(slot=3, symbol_in_slot=0, cell_id=17, n_rb=25)
    assert len(values) == 50
    assert np.allclose(np.abs(values), 1.0)


def test_values_deterministic_per_slot_symbol_cell():
    a = crs_values(1, 0, 5, 6)
    b = crs_values(1, 0, 5, 6)
    assert np.array_equal(a, b)


def test_values_differ_across_slots():
    a = crs_values(0, 0, 5, 6)
    b = crs_values(1, 0, 5, 6)
    assert not np.array_equal(a, b)


def test_narrowband_slice_of_wideband():
    # 36.211's m' = m + 110 - N_RB: a 6-RB receiver sees the centre of
    # what a 100-RB receiver sees.
    wide = crs_values(2, 0, 9, 100)
    narrow = crs_values(2, 0, 9, 6)
    start = 100 - 6
    assert np.allclose(wide[start : start + 12][: len(narrow)], narrow)


def test_c_init_depends_on_everything():
    base = crs_c_init(0, 0, 0)
    assert crs_c_init(1, 0, 0) != base
    assert crs_c_init(0, 4, 0) != base
    assert crs_c_init(0, 0, 1) != base
