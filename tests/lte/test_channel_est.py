"""Channel-estimation tests."""

import numpy as np
import pytest

from repro.channel.fading import FadingChannel
from repro.lte import CellConfig, LteTransmitter
from repro.lte.channel_est import _interp_leading, _knots, estimate_channel
from repro.lte.frame import build_structure
from repro.lte.ofdm import demodulate_frame
from repro.lte.params import LteParams
from repro.lte.resource_grid import SYMBOLS_PER_FRAME
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng
from tests.lte.oracles import estimate_channel_loop


def _observed_grid(gain=1.0, fading=None, snr_db=None, seed=0):
    cell = CellConfig(n_id_1=3, n_id_2=0)
    capture = LteTransmitter(1.4, cell=cell, rng=seed).transmit(1)
    samples = capture.samples * gain
    if fading is not None:
        samples = fading.apply(samples)
    if snr_db is not None:
        samples = awgn(samples, snr_db, make_rng(seed + 1))
    grid = demodulate_frame(capture.params, samples)
    return capture, grid


def test_flat_gain_recovered():
    capture, grid = _observed_grid(gain=0.5 * np.exp(1j * 0.7))
    estimate = estimate_channel(grid, capture.cell.cell_id, capture.params)
    assert np.allclose(estimate.gains, 0.5 * np.exp(1j * 0.7), atol=1e-6)


def test_equalization_restores_data():
    capture, grid = _observed_grid(gain=2.0 * np.exp(-1j * 1.1))
    estimate = estimate_channel(grid, capture.cell.cell_id, capture.params)
    equalized = estimate.equalize(grid)
    assert np.allclose(equalized, capture.frames[0].grid.values, atol=1e-6)


def test_noise_variance_estimate_tracks_snr():
    capture, grid_clean = _observed_grid(snr_db=30.0)
    _, grid_noisy = _observed_grid(snr_db=10.0)
    est_clean = estimate_channel(grid_clean, capture.cell.cell_id, capture.params)
    est_noisy = estimate_channel(grid_noisy, capture.cell.cell_id, capture.params)
    assert est_noisy.noise_variance > 10 * est_clean.noise_variance


def test_multipath_equalization_low_evm():
    fading = FadingChannel.rician(k_db=8.0, n_taps=3, rng=make_rng(5))
    capture, grid = _observed_grid(fading=fading, snr_db=35.0)
    estimate = estimate_channel(grid, capture.cell.cell_id, capture.params)
    equalized = estimate.equalize(grid)
    reference = capture.frames[0].grid.values
    mask = np.abs(reference) > 0
    evm = np.sqrt(
        np.sum(np.abs(equalized[mask] - reference[mask]) ** 2)
        / np.sum(np.abs(reference[mask]) ** 2)
    )
    assert evm < 0.25


def test_wrong_grid_shape_rejected():
    capture, _ = _observed_grid()
    with pytest.raises(ValueError):
        estimate_channel(np.zeros((10, 72), complex), 0, capture.params)


def _pilot_grids(bandwidth, cell_id):
    """A frame's clean, AWGN and multipath observations, made on the grid
    (the estimate reads only the CRS resource elements)."""
    params = LteParams.from_bandwidth(bandwidth)
    cell = CellConfig(n_id_1=cell_id // 3, n_id_2=cell_id % 3)
    sent = build_structure(params, cell).values
    rng = make_rng(cell_id)
    noise = 0.1 * (rng.normal(size=sent.shape) + 1j * rng.normal(size=sent.shape))
    # Four taps, 0-12 samples late, each turning slowly over the frame.
    taps = rng.normal(size=4) + 1j * rng.normal(size=4)
    delays = np.array([0.0, 3.0, 7.0, 12.0]) / params.fft_size
    doppler = rng.uniform(-2e-3, 2e-3, size=4)
    k = np.arange(params.n_subcarriers)[None, :, None]
    t = np.arange(SYMBOLS_PER_FRAME)[:, None, None]
    channel = np.sum(taps * np.exp(-2j * np.pi * (k * delays - t * doppler)), axis=-1)
    return params, {
        "clean": sent,
        "awgn": sent + noise,
        "multipath": channel * sent + noise,
    }


@pytest.mark.parametrize("cell_id", range(6))
@pytest.mark.parametrize("bandwidth", [1.4, 3, 5, 10, 15, 20])
def test_estimate_equals_the_per_symbol_loop(bandwidth, cell_id):
    """The batched estimate gives the original loop's gains and noise
    variance exactly, on every bandwidth, every CRS shift (``cell_id`` mod
    6) and clean, AWGN and multipath grids.  The loop calls ``np.interp``
    itself, so a numpy whose interpolation rounds differently fails here."""
    params, grids = _pilot_grids(bandwidth, cell_id)
    for name, grid in grids.items():
        estimate = estimate_channel(grid, cell_id, params)
        expected = estimate_channel_loop(grid, cell_id, params)
        assert np.array_equal(estimate.gains, expected.gains), name
        assert estimate.noise_variance == expected.noise_variance, name


def test_batched_interpolation_is_np_interp_bit_for_bit():
    """The batched interpolation against ``np.interp`` column by column:
    uneven knots, points before, on, between and past them, and knot
    values that include zeros of either sign (a point on a knot copies
    its value; the line formula would lose a zero's sign)."""
    rng = make_rng(9)
    xp = np.array([2, 3, 7, 8, 13, 20])
    x = np.arange(-1, 23)
    fp = rng.normal(size=(len(xp), 5)) + 1j * rng.normal(size=(len(xp), 5))
    fp[1] = complex(-0.0, -0.0)
    fp[4, 2] = complex(0.0, -0.0)
    out = np.empty((len(x), 5), dtype=complex)
    _interp_leading(fp, _knots(x, xp), out)
    for col in range(5):
        for part in (np.real, np.imag):
            expected = np.interp(x, xp, part(fp[:, col]))
            assert part(out[:, col]).tobytes() == expected.tobytes()
