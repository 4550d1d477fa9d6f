"""Equalizer and full backscatter-demodulator tests."""

import numpy as np
import pytest

from repro.bsrx.demodulator import BackscatterDemodulator
from repro.bsrx.equalizer import equalize_symbol, estimate_channel_from_known
from repro.channel.fading import FadingChannel
from repro.lte import LteTransmitter
from repro.tag.controller import TagController
from repro.tag.modulator import ChipModulator
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng


def test_channel_estimate_flat():
    rng = make_rng(0)
    expected = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    g = 0.8 * np.exp(1j * 0.5)
    channel = estimate_channel_from_known(g * expected, expected)
    assert np.allclose(channel, g, atol=0.02)


def test_channel_estimate_two_tap():
    rng = make_rng(1)
    expected = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    taps = np.array([1.0, 0.4j])
    observed = np.convolve(expected, taps)[:512]
    channel = estimate_channel_from_known(observed, expected)
    truth = np.fft.fft(np.concatenate([taps, np.zeros(510)]))
    # Smoothed estimate tracks the true response closely.
    error = np.mean(np.abs(channel - truth) ** 2) / np.mean(np.abs(truth) ** 2)
    assert error < 0.05


def test_equalize_restores_symbol():
    rng = make_rng(2)
    expected = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    taps = np.array([0.9, 0.3 - 0.2j])
    observed = np.convolve(expected, taps)[:512]
    channel = estimate_channel_from_known(observed, expected)
    equalized = equalize_symbol(observed, channel)
    error = np.mean(np.abs(equalized - expected) ** 2) / np.mean(
        np.abs(expected) ** 2
    )
    assert error < 0.05


def test_equalizer_shape_checks():
    with pytest.raises(ValueError):
        estimate_channel_from_known(np.zeros(4, complex), np.zeros(5, complex))
    with pytest.raises(ValueError):
        equalize_symbol(np.zeros(4, complex), np.zeros(5, complex))


def _end_to_end(error_samples=0, fading=None, snr_db=None, payload_len=20000, seed=0):
    capture = LteTransmitter(1.4, rng=seed).transmit(2)
    params = capture.params
    controller = TagController(params)
    payload = make_rng(seed + 1).integers(0, 2, size=payload_len).astype(np.int8)
    timing = controller.genie_timing(0, error_samples)
    schedule = controller.build_schedule(timing, len(capture.samples), payload)
    hybrid = ChipModulator().reflect(capture.samples, schedule.chips)
    if fading is not None:
        hybrid = fading.apply(hybrid)
    if snr_db is not None:
        hybrid = awgn(hybrid, snr_db, make_rng(seed + 2))
    demod = BackscatterDemodulator(params)
    half = params.samples_per_frame // 2
    halves = np.arange(0, len(hybrid) - half + 1, half)
    result = demod.demodulate(hybrid, capture.samples, halves)
    from repro.core.metrics import measure_link

    counts = measure_link(schedule, result, params.fft_size // 2)
    return counts.n_errors / counts.n_bits, result, schedule


def test_ideal_channel_near_error_free():
    # A tiny floor (<2e-4) remains from the MMSE regularisation acting on
    # chips that ride near-zero ambient samples.
    ber, _, _ = _end_to_end()
    assert ber < 5e-4


def test_sync_error_absorbed_by_offset_search():
    for error in (-20, -5, 7, 20):
        ber, result, schedule = _end_to_end(error_samples=error)
        assert ber < 1e-3, error
        # The found offsets track the tag's shift.
        offsets = {p.offset for p in result.packets}
        nominal = (128 - 72) // 2
        assert nominal + error in offsets


def test_flat_gain_and_phase_transparent():
    fading = FadingChannel(taps=np.array([0.5 * np.exp(1j * 2.0)]))
    ber, _, _ = _end_to_end(fading=fading)
    assert ber < 5e-4


def test_out_hop_multipath_equalized():
    fading = FadingChannel.rician(k_db=6.0, n_taps=3, rng=make_rng(9))
    ber, result, _ = _end_to_end(fading=fading, snr_db=40.0)
    assert ber < 0.01


def test_noise_degrades_gracefully():
    ber_high, _, _ = _end_to_end(snr_db=20.0, seed=3)
    ber_low, _, _ = _end_to_end(snr_db=0.0, seed=3)
    assert ber_high < 0.01
    assert ber_low > ber_high


def test_shape_mismatch_rejected():
    demod = BackscatterDemodulator(1.4)
    with pytest.raises(ValueError):
        demod.demodulate(np.zeros(10, complex), np.zeros(9, complex), [0])
