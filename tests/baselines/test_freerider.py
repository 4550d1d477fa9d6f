"""WiFi-backscatter baseline tests (the occupancy-gated throughput model)."""

import pytest

from repro.baselines.freerider import (
    BITS_PER_PACKET,
    RAW_BIT_RATE_BPS,
    WifiBackscatterModel,
)


def test_raw_rate_is_symbol_level():
    # 1 bit per two 4-us WiFi symbols = 125 kbps.
    assert RAW_BIT_RATE_BPS == pytest.approx(125e3)


def test_throughput_scales_with_occupancy():
    model = WifiBackscatterModel()
    low = model.throughput_bps(0.1, 5, 10)
    high = model.throughput_bps(0.5, 5, 10)
    assert high == pytest.approx(5 * low, rel=1e-6)


def test_paper_anchor_home_average():
    # Paper §4.3.1: home-average ~37 kbps at ~0.3 occupancy.
    model = WifiBackscatterModel()
    assert model.throughput_bps(0.33, 5, 10) == pytest.approx(37e3, rel=0.25)


def test_range_collapse_past_120ft():
    model = WifiBackscatterModel()
    at_40 = model.throughput_bps(0.9, 5, 40)
    at_150 = model.throughput_bps(0.9, 5, 150)
    assert at_40 > 100 * max(at_150, 1e-9)


def test_packet_success_decreasing():
    model = WifiBackscatterModel()
    values = [model.packet_success(5, d) for d in (10, 60, 120, 180)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_ber_uses_symbol_processing_gain():
    # The symbol-level scheme integrates 80 samples per decision.
    model = WifiBackscatterModel()
    assert model.ber(5, 10) < 1e-3
