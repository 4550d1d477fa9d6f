"""Frame-builder tests."""

import numpy as np
import pytest

from repro.lte import frame as frame_module
from repro.lte.frame import CellConfig, FrameBuilder, build_structure
from repro.lte.params import LteParams
from repro.lte.resource_grid import ReKind, symbol_index


@pytest.fixture
def params():
    return LteParams.from_bandwidth(1.4)


def test_cell_id_composition():
    cell = CellConfig(n_id_1=17, n_id_2=2)
    assert cell.cell_id == 53


def test_invalid_cell_config():
    with pytest.raises(ValueError):
        CellConfig(n_id_1=200)
    with pytest.raises(ValueError):
        CellConfig(n_id_2=5)
    with pytest.raises(ValueError):
        CellConfig(modulation="128qam")
    with pytest.raises(ValueError):
        CellConfig(pdsch_load=1.5)


def test_sync_signals_placed(params):
    frame = FrameBuilder(params, rng=0).build()
    kinds = frame.grid.kinds
    assert np.all(kinds[symbol_index(0, 6)][5:67] == ReKind.PSS)
    assert np.all(kinds[symbol_index(10, 6)][5:67] == ReKind.PSS)
    assert np.all(kinds[symbol_index(0, 5)][5:67] == ReKind.SSS)


def _pss_magnitudes(params):
    frame = FrameBuilder(params, rng=0).build()
    pss_row = frame.grid.values[symbol_index(0, 6)]
    return np.abs(pss_row[frame.grid.kinds[symbol_index(0, 6)] == ReKind.PSS])


def test_sync_boost_applied(params, monkeypatch):
    assert frame_module.SYNC_BOOST_DB == 6.0
    assert np.allclose(_pss_magnitudes(params), 10 ** (6.0 / 20.0))
    # FrameBuilder reads the constant live.
    monkeypatch.setattr(frame_module, "SYNC_BOOST_DB", 3.0)
    assert np.allclose(_pss_magnitudes(params), 10 ** (3.0 / 20.0))


def test_no_empty_res_at_full_load(params):
    frame = FrameBuilder(params, rng=1).build()
    assert not np.any(frame.grid.kinds == ReKind.EMPTY)


def test_pdsch_load_leaves_subframes_silent(params):
    cell = CellConfig(pdsch_load=0.0)
    frame = FrameBuilder(params, cell, rng=2).build()
    assert np.sum(frame.grid.kinds == ReKind.DATA) == 0
    assert frame.payload_bit_count == 0


def test_ten_transport_blocks_per_frame(params):
    frame = FrameBuilder(params, rng=3).build()
    assert len(frame.transport_blocks) == 10
    subframes = sorted(tb.subframe for tb in frame.transport_blocks)
    assert subframes == list(range(10))


def test_tb_size_tracks_code_rate(params):
    low = FrameBuilder(params, CellConfig(code_rate=1 / 3), rng=4).build()
    high = FrameBuilder(params, CellConfig(code_rate=1 / 2), rng=4).build()
    assert high.payload_bit_count > low.payload_bit_count


def test_explicit_payloads_roundtrip(params):
    builder = FrameBuilder(params, rng=5)
    reference = builder.build()
    payloads = [tb.payload_bits for tb in reference.transport_blocks]
    rebuilt = FrameBuilder(params, rng=99).build(payloads=payloads)
    assert np.allclose(rebuilt.grid.values, reference.grid.values)


def test_wrong_payload_size_rejected(params):
    builder = FrameBuilder(params, rng=6)
    frame = builder.build()
    payloads = [tb.payload_bits for tb in frame.transport_blocks]
    payloads[0] = payloads[0][:-1]
    with pytest.raises(ValueError):
        builder.build(payloads=payloads)


def test_build_structure_has_no_data(params):
    grid = build_structure(params)
    assert np.sum(grid.kinds == ReKind.DATA) == 0
    assert np.sum(grid.kinds == ReKind.PSS) == 124
    rows, cols = grid.data_positions()
    assert len(rows) > 0


def test_sync_subframe_has_fewer_data_res(params):
    frame = FrameBuilder(params, rng=7).build()
    tb0 = next(tb for tb in frame.transport_blocks if tb.subframe == 0)
    tb1 = next(tb for tb in frame.transport_blocks if tb.subframe == 1)
    assert tb0.n_data_res < tb1.n_data_res
