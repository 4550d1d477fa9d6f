"""RF energy-harvesting model tests."""

import pytest

from repro.extensions import HarvesterModel, harvesting


def test_nothing_below_sensitivity():
    assert harvesting.SENSITIVITY_DBM == -20.0
    model = HarvesterModel()
    assert model.efficiency(-25.0) == 0.0
    assert model.harvested_w(-25.0) == 0.0


def test_efficiency_monotone_and_bounded():
    model = HarvesterModel()
    values = [model.efficiency(p) for p in (-19, -10, 0, 10)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] <= harvesting.PEAK_EFFICIENCY


def test_harvest_scales_with_occupancy():
    model = HarvesterModel()
    full = model.harvested_w(0.0, occupancy=1.0)
    half = model.harvested_w(0.0, occupancy=0.5)
    assert half == pytest.approx(full / 2)


def test_self_sustaining_close_only():
    model = HarvesterModel()
    near = model.report(2.0)
    far = model.report(20.0)
    assert near.self_sustaining
    assert not far.self_sustaining
    assert near.duty_cycle == 1.0
    assert far.duty_cycle < 0.05


def test_duty_cycle_bounded():
    model = HarvesterModel()
    assert 0.0 <= model.report(50.0).duty_cycle <= 1.0


def test_continuous_lte_beats_bursty_wifi_for_harvesting():
    """Observation 1 again: at equal incident power, the always-on LTE
    carrier harvests ~3x more than evening-peak WiFi."""
    model = HarvesterModel()
    lte = model.harvested_w(-10.0, occupancy=1.0)
    wifi = model.harvested_w(-10.0, occupancy=0.35)
    assert lte > 2.5 * wifi
