"""Ambient-traffic model tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic import (
    ContinuousTraffic,
    OnOffTraffic,
    hourly_occupancy,
    occupancy_cdf,
    occupancy_profile,
    weekly_occupancy_samples,
)
from repro.traffic import occupancy
from repro.utils.rng import make_rng


def _busy_fraction(model, duration_s):
    """Measured busy fraction of ``model`` over ``[0, duration_s)``."""
    return sum(iv.duration for iv in model.intervals(duration_s)) / duration_s


def test_onoff_converges_to_target_occupancy():
    model = OnOffTraffic(occupancy=0.3, mean_busy_s=2e-3, rng=make_rng(0))
    assert _busy_fraction(model, 200.0) == pytest.approx(0.3, abs=0.03)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.9))
def test_onoff_occupancy_property(target):
    model = OnOffTraffic(occupancy=target, mean_busy_s=5e-3, rng=make_rng(1))
    assert _busy_fraction(model, 100.0) == pytest.approx(target, abs=0.08)


def test_onoff_intervals_ordered_and_bounded():
    model = OnOffTraffic(occupancy=0.5, rng=make_rng(2))
    intervals = model.intervals(1.0)
    for a, b in zip(intervals, intervals[1:]):
        assert a.end <= b.start
    assert all(0.0 <= iv.start < iv.end <= 1.0 for iv in intervals)


def test_zero_occupancy_no_intervals():
    model = OnOffTraffic(occupancy=0.0, rng=make_rng(3))
    assert model.intervals(10.0) == []
    assert _busy_fraction(model, 10.0) == 0.0


def test_invalid_occupancy_rejected():
    with pytest.raises(ValueError):
        OnOffTraffic(occupancy=1.0)


def test_presence_mask_matches_ratio():
    # Two models on one seed draw the same intervals.
    mask = OnOffTraffic(occupancy=0.4, rng=make_rng(4)).presence_mask(50.0, 1e-3)
    model = OnOffTraffic(occupancy=0.4, rng=make_rng(4))
    assert mask.mean() == pytest.approx(_busy_fraction(model, 50.0), abs=0.01)


def test_continuous_traffic_always_on():
    model = ContinuousTraffic()
    assert _busy_fraction(model, 5.0) == 1.0
    assert model.presence_mask(1.0).all()


def test_lte_profile_is_always_one():
    assert np.all(occupancy_profile("lte", "home") == 1.0)
    assert hourly_occupancy("lte", "mall", 3) == 1.0


def test_lora_profile_sparse():
    assert np.all(occupancy_profile("lora", "office") < 0.05)


def test_wifi_home_evening_peak():
    profile = occupancy_profile("wifi", "home")
    assert profile[19] > profile[3]  # evening > night


def test_wifi_office_daytime_peak():
    profile = occupancy_profile("wifi", "office")
    assert profile[13] > profile[20]


def test_unknown_venue_or_tech_rejected():
    with pytest.raises(ValueError):
        occupancy_profile("wifi", "spaceship")
    with pytest.raises(ValueError):
        occupancy_profile("zigbee", "home")


def test_weekly_samples_shape(monkeypatch):
    assert occupancy.SAMPLES_PER_HOUR == 4
    monkeypatch.setattr(occupancy, "SAMPLES_PER_HOUR", 2)
    samples = weekly_occupancy_samples("wifi", "home", rng=0)
    assert len(samples) == 7 * 24 * 2
    assert np.all((samples >= 0) & (samples <= 1))


def test_paper_office_cdf_claim():
    """Fig. 4c: office WiFi < 0.5 for ~80% of the time, < 0.7 for ~90%."""
    samples = weekly_occupancy_samples("wifi", "office", rng=1)
    assert np.mean(samples < 0.5) > 0.75
    assert np.mean(samples < 0.7) > 0.9


def test_cdf_monotone_and_normalised():
    samples = weekly_occupancy_samples("wifi", "mall", rng=2)
    grid, cdf = occupancy_cdf(samples)
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[-1] == pytest.approx(1.0)
