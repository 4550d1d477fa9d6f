"""OFDM modulator/demodulator tests."""

import numpy as np
import pytest

from repro.lte.frame import FrameBuilder
from repro.lte.ofdm import demodulate_frame, modulate_frame
from repro.lte.params import LteParams
from repro.utils.rng import make_rng

from tests.lte.oracles import demodulate_symbol, modulate_symbol


@pytest.fixture
def params():
    return LteParams.from_bandwidth(1.4)


def test_symbol_roundtrip(params):
    rng = make_rng(0)
    values = rng.standard_normal(72) + 1j * rng.standard_normal(72)
    samples = modulate_symbol(params, values, symbol_in_slot=0)
    recovered = demodulate_symbol(params, samples, symbol_in_slot=0)
    assert np.allclose(recovered, values)


def test_cyclic_prefix_is_a_copy(params):
    rng = make_rng(1)
    values = rng.standard_normal(72) + 1j * rng.standard_normal(72)
    samples = modulate_symbol(params, values, 1)
    cp = params.cp_other
    assert np.allclose(samples[:cp], samples[-cp:])


def test_symbol_power_preserved(params):
    rng = make_rng(2)
    values = rng.standard_normal(72) + 1j * rng.standard_normal(72)
    values /= np.sqrt(np.mean(np.abs(values) ** 2))
    samples = modulate_symbol(params, values, 1)[params.cp_other :]
    # Power scaled by occupied fraction of the FFT.
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(72 / 128, rel=1e-6)


def test_frame_roundtrip(params):
    frame = FrameBuilder(params, rng=3).build()
    samples = modulate_frame(frame.grid)
    grid = demodulate_frame(params, samples)
    assert np.allclose(grid, frame.grid.values, atol=1e-9)


def test_frame_sample_count(params):
    frame = FrameBuilder(params, rng=4).build()
    assert len(modulate_frame(frame.grid)) == params.samples_per_frame


def test_demodulate_wrong_length_raises(params):
    with pytest.raises(ValueError):
        demodulate_symbol(params, np.zeros(10, complex), 0)
    with pytest.raises(ValueError):
        demodulate_frame(params, np.zeros(100, complex))


def test_timing_shift_rotates_phase_only(params):
    # A one-sample late FFT window keeps per-subcarrier magnitudes (the CP
    # absorbs the shift) but rotates phases linearly — the OFDM property
    # that makes the tag's coarse sync workable.
    rng = make_rng(5)
    values = rng.standard_normal(72) + 1j * rng.standard_normal(72)
    samples = modulate_symbol(params, values, 1)
    early = samples[params.cp_other - 1 : params.cp_other - 1 + params.fft_size]
    bins = np.fft.fft(early) / np.sqrt(params.fft_size)
    recovered = bins[params.subcarrier_indices()]
    assert np.allclose(np.abs(recovered), np.abs(values), atol=1e-9)
