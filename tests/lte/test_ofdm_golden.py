"""Golden-output tests: vectorised OFDM must be bit-identical to the loops.

The pre-vectorisation per-symbol implementations are pinned in
``tests/lte/oracles.py`` as ``*_frame_loop``; these tests assert exact
``array_equal`` (not allclose) between them and the batched paths, across
narrow/mid/wide numerologies and arbitrary complex grids.
"""

import numpy as np
import pytest

from repro.lte import ofdm
from repro.lte.params import LteParams, SLOTS_PER_FRAME, SYMBOLS_PER_SLOT
from repro.lte.resource_grid import ResourceGrid, SYMBOLS_PER_FRAME
from repro.utils.rng import make_rng

from tests.lte.oracles import (
    demodulate_frame_loop,
    demodulate_symbol,
    modulate_frame_loop,
    modulate_symbol,
)

BANDWIDTHS = (1.4, 5.0, 20.0)


def _random_grid(params, seed):
    rng = make_rng(seed)
    grid = ResourceGrid(params)
    shape = grid.values.shape
    grid.values[:] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return grid


@pytest.mark.parametrize("bandwidth", BANDWIDTHS)
def test_modulate_frame_bit_identical_to_loop(bandwidth):
    params = LteParams.from_bandwidth(bandwidth)
    grid = _random_grid(params, 11)
    assert np.array_equal(ofdm.modulate_frame(grid), modulate_frame_loop(grid))


@pytest.mark.parametrize("bandwidth", BANDWIDTHS)
def test_demodulate_frame_bit_identical_to_loop(bandwidth):
    params = LteParams.from_bandwidth(bandwidth)
    samples = ofdm.modulate_frame(_random_grid(params, 12))
    assert np.array_equal(
        ofdm.demodulate_frame(params, samples),
        demodulate_frame_loop(params, samples),
    )


def test_demodulate_ignores_trailing_samples_identically():
    params = LteParams.from_bandwidth(1.4)
    samples = ofdm.modulate_frame(_random_grid(params, 13))
    rng = make_rng(14)
    extra = rng.normal(size=100) + 1j * rng.normal(size=100)
    padded = np.concatenate([samples, extra])
    assert np.array_equal(
        ofdm.demodulate_frame(params, padded),
        demodulate_frame_loop(params, padded),
    )


@pytest.mark.parametrize("bandwidth", BANDWIDTHS)
def test_symbol_and_frame_paths_agree(bandwidth):
    """Per-symbol helpers and the batched frame path produce the same bits."""
    params = LteParams.from_bandwidth(bandwidth)
    grid = _random_grid(params, 15)
    frame = ofdm.modulate_frame(grid)
    layout = ofdm.frame_layout(params)
    for row in (0, 1, 7, SYMBOLS_PER_FRAME - 1):
        slot, sym = divmod(row, SYMBOLS_PER_SLOT)
        start = int(layout.starts[row])
        length = int(layout.lengths[row])
        piece = modulate_symbol(params, grid.values[row], sym)
        assert np.array_equal(frame[start : start + length], piece)
        assert np.array_equal(
            demodulate_symbol(params, frame[start : start + length], sym),
            ofdm.demodulate_frame(params, frame)[row],
        )


def test_demodulate_short_capture_rejected_by_both():
    params = LteParams.from_bandwidth(1.4)
    short = np.zeros(params.samples_per_frame - 1, dtype=complex)
    with pytest.raises(ValueError):
        ofdm.demodulate_frame(params, short)
    with pytest.raises(ValueError):
        demodulate_frame_loop(params, short)


@pytest.mark.parametrize("bandwidth", BANDWIDTHS)
def test_frame_layout_matches_params_walk(bandwidth):
    params = LteParams.from_bandwidth(bandwidth)
    layout = ofdm.frame_layout(params)
    for row in range(SYMBOLS_PER_FRAME):
        slot, sym = divmod(row, SYMBOLS_PER_SLOT)
        assert layout.starts[row] == params.symbol_start(slot, sym)
        assert layout.cp_lengths[row] == params.cp_length(sym)
        assert layout.lengths[row] == params.symbol_length(sym)
        assert layout.useful_starts[row] == params.useful_start(slot, sym)
    assert layout.starts[-1] + layout.lengths[-1] == params.samples_per_frame
    assert len(layout.cp_in_slot) == SYMBOLS_PER_SLOT
    assert layout.starts.shape == (SLOTS_PER_FRAME * SYMBOLS_PER_SLOT,)


def test_frame_layout_is_cached_and_read_only():
    params = LteParams.from_bandwidth(5.0)
    a = ofdm.frame_layout(params)
    b = ofdm.frame_layout(params)
    assert a is b
    assert not a.starts.flags.writeable
    with pytest.raises(ValueError):
        a.starts[0] = 1
