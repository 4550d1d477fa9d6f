"""Closed-form LScatter link-model tests (the calibrated anchors)."""

import numpy as np
import pytest

from repro.channel.link import LinkBudget
from repro.core.link_budget import (
    LScatterLinkModel,
    data_symbols_per_frame,
    rayleigh_bpsk_ber,
)


def test_schedule_symbol_count():
    # 58 data symbols per half-frame -> 116 per 10 ms frame.
    assert data_symbols_per_frame() == 116


def test_raw_rate_matches_paper_headline():
    # 20 MHz: 116 x 1200 chips per 10 ms = 13.92 Mbps (paper: 13.63).
    model = LScatterLinkModel(20.0)
    assert model.raw_bit_rate_bps == pytest.approx(13.92e6)
    # 1.4 MHz: ~0.84 Mbps (paper: ~800 kbps at 1.4 MHz).
    assert LScatterLinkModel(1.4).raw_bit_rate_bps == pytest.approx(0.8352e6)


def test_rate_proportional_to_bandwidth():
    rates = [LScatterLinkModel(bw).raw_bit_rate_bps for bw in (1.4, 5.0, 20.0)]
    assert rates[1] / rates[0] == pytest.approx(300 / 72)
    assert rates[2] / rates[1] == pytest.approx(4.0)


def test_rayleigh_ber_limits():
    assert rayleigh_bpsk_ber(0.0) == pytest.approx(0.5)
    assert rayleigh_bpsk_ber(1e6) < 1e-6
    # High-SNR asymptote 1/(4 g).
    assert rayleigh_bpsk_ber(1000.0) == pytest.approx(1 / 4000, rel=0.01)


def test_ber_monotone_in_distance():
    model = LScatterLinkModel(20.0, LinkBudget(venue="shopping_mall"))
    bers = [model.ber(5, d) for d in (10, 50, 100, 150, 200)]
    assert all(b2 >= b1 for b1, b2 in zip(bers, bers[1:]))


def test_mall_anchors():
    """Paper Fig. 24: BER < ~0.1% within 40 ft, < ~1% within 150 ft."""
    model = LScatterLinkModel(20.0, LinkBudget(venue="shopping_mall"))
    assert model.ber(5, 40) < 2e-3
    assert model.ber(5, 150) < 2e-2
    assert model.ber(5, 40) < model.ber(5, 150)


def test_throughput_close_range_near_raw_rate():
    model = LScatterLinkModel(20.0, LinkBudget(venue="smart_home"))
    prediction = model.predict(3, 3)
    assert prediction.throughput_bps > 0.98 * model.raw_bit_rate_bps


def test_sync_availability_collapses_with_enb_distance():
    model = LScatterLinkModel(20.0, LinkBudget(venue="smart_home"))
    near = model.sync_availability(5)
    far = model.sync_availability(25)
    assert near > 0.95
    assert far < 0.5


def test_fig30_shape_monotone_decreasing():
    model = LScatterLinkModel(
        20.0, LinkBudget(venue="outdoor_street", tx_power_dbm=40.0)
    )
    ranges = [model.max_range_ft(d1, ber_target=3e-3) for d1 in (2, 8, 24, 40)]
    assert all(r2 < r1 for r1, r2 in zip(ranges, ranges[1:]))
    # Paper anchors: ~320 ft at 2 ft, ~160 ft at 24 ft.
    assert ranges[0] == pytest.approx(320, rel=0.25)
    assert ranges[2] == pytest.approx(160, rel=0.25)


def test_higher_power_longer_range():
    low = LScatterLinkModel(20.0, LinkBudget(venue="outdoor", tx_power_dbm=10.0))
    high = LScatterLinkModel(20.0, LinkBudget(venue="outdoor", tx_power_dbm=40.0))
    assert high.max_range_ft(5) > low.max_range_ft(5)


def test_self_interference_floor_at_mid_distances():
    # With both hops at 25 ft indoors the un-equalised hop's scatter
    # dominates thermal noise.
    model = LScatterLinkModel(20.0, LinkBudget(venue="smart_home"))
    ber = model.ber(25, 25)
    assert ber > 0.01
