"""LTE numerology tests (TS 36.211 facts)."""

import numpy as np
import pytest

from repro.lte.params import (
    LteParams,
    SUPPORTED_BANDWIDTHS_MHZ,
    SYMBOLS_PER_SLOT,
    USEFUL_SYMBOL_SECONDS,
)

#: bandwidth -> (n_rb, fft, sample rate MHz)
EXPECTED = {
    1.4: (6, 128, 1.92),
    3.0: (15, 256, 3.84),
    5.0: (25, 512, 7.68),
    10.0: (50, 1024, 15.36),
    15.0: (75, 1536, 23.04),
    20.0: (100, 2048, 30.72),
}


@pytest.mark.parametrize("bw", SUPPORTED_BANDWIDTHS_MHZ)
def test_standard_numerology(bw):
    params = LteParams.from_bandwidth(bw)
    n_rb, fft, rate = EXPECTED[bw]
    assert params.n_rb == n_rb
    assert params.fft_size == fft
    assert params.sample_rate_hz == pytest.approx(rate * 1e6)
    assert params.n_subcarriers == 12 * n_rb


def test_unsupported_bandwidth_raises():
    with pytest.raises(ValueError):
        LteParams.from_bandwidth(7.0)


def test_useful_symbol_is_66_7_us():
    assert USEFUL_SYMBOL_SECONDS == pytest.approx(66.67e-6, rel=1e-3)


@pytest.mark.parametrize("bw", SUPPORTED_BANDWIDTHS_MHZ)
def test_frame_is_10ms(bw):
    params = LteParams.from_bandwidth(bw)
    assert params.samples_per_frame / params.sample_rate_hz == pytest.approx(10e-3)


def test_cp_lengths_20mhz():
    params = LteParams.from_bandwidth(20.0)
    assert params.cp_first == 160
    assert params.cp_other == 144
    # Paper §3.2.3: symbol 144 + 2048 = 2192 samples (~2196 in its rounding).
    assert params.symbol_length(1) == 2192
    assert params.symbol_length(0) == 2208


def test_cp_scales_with_fft():
    params = LteParams.from_bandwidth(1.4)
    assert params.cp_first == 10
    assert params.cp_other == 9


def test_slot_has_seven_symbols_and_correct_length():
    params = LteParams.from_bandwidth(5.0)
    total = sum(params.symbol_length(i) for i in range(SYMBOLS_PER_SLOT))
    assert total == params.samples_per_slot
    assert params.samples_per_slot / params.sample_rate_hz == pytest.approx(0.5e-3)


def test_symbol_start_monotone():
    params = LteParams.from_bandwidth(10.0)
    starts = [
        params.symbol_start(slot, sym)
        for slot in range(20)
        for sym in range(SYMBOLS_PER_SLOT)
    ]
    assert all(b > a for a, b in zip(starts, starts[1:]))


def test_useful_start_skips_cp():
    params = LteParams.from_bandwidth(3.0)
    assert params.useful_start(0, 0) == params.cp_first
    assert (
        params.useful_start(2, 3)
        == params.symbol_start(2, 3) + params.cp_other
    )


def test_subcarrier_indices_avoid_dc():
    params = LteParams.from_bandwidth(1.4)
    idx = params.subcarrier_indices()
    assert len(idx) == 72
    assert 0 not in idx  # DC unused
    assert len(np.unique(idx)) == 72


def test_basic_timing_unit_is_one_sample():
    params = LteParams.from_bandwidth(20.0)
    # Paper: Ts = 66.7us / K, one sample at the carrier's sample rate.
    assert 1.0 / params.sample_rate_hz == pytest.approx(
        USEFUL_SYMBOL_SECONDS / params.fft_size
    )


def test_out_of_range_indices_raise():
    params = LteParams.from_bandwidth(1.4)
    with pytest.raises(ValueError):
        params.symbol_length(7)
    with pytest.raises(ValueError):
        params.symbol_start(20, 0)
    with pytest.raises(ValueError):
        params.cp_length(-1)
