"""LoRa CSS PHY tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lora import (
    LoraParams,
    LoraReceiver,
    LoraTransmitter,
    chirp,
    demodulate_symbols,
    modulate_symbols,
)
from repro.lora.css import bits_to_symbols, symbols_to_bits
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng


def test_params_basic():
    params = LoraParams(spreading_factor=7, bandwidth_hz=125e3)
    assert params.n_chips == 128
    assert params.bits_per_symbol == 7


def test_invalid_sf_rejected():
    with pytest.raises(ValueError):
        LoraParams(spreading_factor=5)


def test_chirp_constant_modulus():
    params = LoraParams()
    assert np.allclose(np.abs(chirp(params)), 1.0)


def test_up_down_chirp_conjugate():
    params = LoraParams()
    assert np.allclose(chirp(params, up=True), np.conj(chirp(params, up=False)))


def test_demod_recovers_shift():
    params = LoraParams(spreading_factor=8)
    values = np.array([0, 1, 100, 255])
    samples = modulate_symbols(params, values)
    recovered, peaks = demodulate_symbols(params, samples, 4)
    assert np.array_equal(recovered, values)
    assert np.all(peaks > 0)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 127), min_size=1, max_size=10))
def test_demod_roundtrip_property(values):
    params = LoraParams(spreading_factor=7)
    samples = modulate_symbols(params, values)
    recovered, _ = demodulate_symbols(params, samples, len(values))
    assert np.array_equal(recovered, values)


def test_out_of_range_symbol_rejected():
    with pytest.raises(ValueError):
        modulate_symbols(LoraParams(spreading_factor=7), [128])


def test_bits_symbols_roundtrip():
    params = LoraParams(spreading_factor=9)
    bits = make_rng(0).integers(0, 2, size=63).astype(np.int8)
    values = bits_to_symbols(params, bits)
    recovered = symbols_to_bits(params, values)[: len(bits)]
    assert np.array_equal(recovered, bits)


def test_packet_roundtrip_clean():
    tx = LoraTransmitter(rng=1)
    packet = tx.transmit(payload_bytes=12)
    signal = np.concatenate([np.zeros(300, complex), packet.samples])
    result = LoraReceiver().decode(signal, len(packet.payload_bits))
    assert result.detected
    assert result.start == 300
    assert np.array_equal(result.payload_bits, packet.payload_bits)


def test_packet_below_noise_floor_sf12():
    params = LoraParams(spreading_factor=12)
    rng = make_rng(2)
    packet = LoraTransmitter(params, rng=rng).transmit(payload_bytes=4)
    signal = np.concatenate([np.zeros(1000, complex), packet.samples])
    noisy = awgn(signal, -8.0, rng)  # below the noise floor
    result = LoraReceiver(params).decode(noisy, len(packet.payload_bits))
    assert result.detected
    errors = np.sum(result.payload_bits != packet.payload_bits)
    assert errors <= 2


def test_processing_gain_ordering():
    # Higher SF survives lower SNR: demodulate one symbol at -5 dB.
    rng = make_rng(3)
    failures = {}
    for sf in (7, 12):
        params = LoraParams(spreading_factor=sf)
        errors = 0
        for trial in range(20):
            value = int(rng.integers(0, params.n_chips))
            samples = modulate_symbols(params, [value])
            noisy = awgn(samples, -5.0, rng)
            got, _ = demodulate_symbols(params, noisy, 1)
            errors += int(got[0] != value)
        failures[sf] = errors
    assert failures[12] <= failures[7]


def test_no_packet_detected_in_noise():
    rng = make_rng(4)
    noise = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
    result = LoraReceiver().decode(noise, 16)
    assert not result.detected
