"""DSP primitive tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.dsp import (
    awgn,
    bit_errors,
    bits_to_int,
    int_to_bits,
    rc_alpha,
    rc_lowpass,
)
from repro.utils.rng import make_rng


def test_rc_lowpass_converges_to_step():
    alpha = rc_alpha(1e-3, 1e5)
    y = rc_lowpass(np.ones(5000), alpha)
    assert y[-1] == pytest.approx(1.0, abs=1e-3)
    assert y[0] < 0.1


def test_rc_lowpass_time_constant():
    # After exactly tau the step response reaches 1 - 1/e.
    fs = 1e6
    tau = 2e-4
    y = rc_lowpass(np.ones(int(fs * tau * 5)), rc_alpha(tau, fs))
    at_tau = y[int(tau * fs)]
    assert at_tau == pytest.approx(1 - np.exp(-1), abs=0.02)


def test_rc_alpha_rejects_bad_values():
    with pytest.raises(ValueError):
        rc_lowpass(np.ones(4), 1.5)


def test_awgn_hits_target_snr():
    rng = make_rng(3)
    signal = np.exp(1j * 2 * np.pi * rng.random(200_000))
    noisy = awgn(signal, 10.0, rng)
    noise = noisy - signal
    snr = 10 * np.log10(np.mean(np.abs(signal) ** 2) / np.mean(np.abs(noise) ** 2))
    assert snr == pytest.approx(10.0, abs=0.1)


@given(st.integers(min_value=0, max_value=2**20 - 1))
def test_bits_int_roundtrip(value):
    assert bits_to_int(int_to_bits(value, 20)) == value


def test_bit_errors_counts():
    a = np.array([0, 1, 1, 0], dtype=np.int8)
    b = np.array([0, 0, 1, 1], dtype=np.int8)
    assert bit_errors(a, b) == 2


def test_bit_errors_shape_mismatch():
    with pytest.raises(ValueError):
        bit_errors(np.zeros(3, np.int8), np.zeros(4, np.int8))
