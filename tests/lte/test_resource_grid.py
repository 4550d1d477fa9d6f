"""Resource-grid tests."""

import numpy as np
import pytest

from repro.lte.params import LteParams
from repro.lte.resource_grid import ReKind, ResourceGrid, symbol_index


@pytest.fixture
def grid():
    return ResourceGrid(LteParams.from_bandwidth(1.4))


def test_shape(grid):
    assert grid.values.shape == (140, 72)
    assert grid.kinds.shape == (140, 72)


def test_symbol_index_flattening():
    assert symbol_index(0, 0) == 0
    assert symbol_index(0, 6) == 6
    assert symbol_index(1, 0) == 7
    assert symbol_index(19, 6) == 139


def test_symbol_index_bounds():
    with pytest.raises(ValueError):
        symbol_index(20, 0)
    with pytest.raises(ValueError):
        symbol_index(0, 7)


def test_centre_indices_symmetric(grid):
    idx = grid.centre_indices(62)
    assert len(idx) == 62
    # 31 below centre, 31 at/above.
    assert np.sum(idx < 36) == 31


def test_place_and_collision(grid):
    cols = np.array([0, 1, 2])
    grid.place(0, 0, cols, np.ones(3), ReKind.CRS)
    assert np.all(grid.kinds[0, :3] == ReKind.CRS)
    with pytest.raises(ValueError):
        grid.place(0, 0, np.array([2, 3]), np.ones(2), ReKind.DATA)


def test_data_positions_exclude_placed(grid):
    grid.place(0, 0, np.arange(10), np.ones(10), ReKind.CRS)
    rows, cols = grid.data_positions()
    assert not np.any((rows == 0) & (cols < 10))
    assert len(rows) == 140 * 72 - 10


def test_mark_data(grid):
    rows = np.array([5, 5])
    cols = np.array([1, 2])
    grid.mark_data(rows, cols, np.array([1 + 1j, 2 + 2j]))
    assert grid.kinds[5, 1] == ReKind.DATA
    assert grid.values[5, 2] == 2 + 2j
