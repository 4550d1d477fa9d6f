"""Unit-conversion tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.units import (
    db_to_linear,
    dbm_to_watts,
    feet_to_meters,
    thermal_noise_dbm,
    watts_to_dbm,
)


def test_db_linear_known_values():
    assert db_to_linear(0.0) == pytest.approx(1.0)
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(-30.0) == pytest.approx(1e-3)


def test_dbm_watts_known_values():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert watts_to_dbm(1e-3) == pytest.approx(0.0)


@given(st.floats(min_value=-120, max_value=60))
def test_db_roundtrip(db):
    assert 10.0 * np.log10(db_to_linear(db)) == pytest.approx(db, abs=1e-9)


@given(st.floats(min_value=-120, max_value=60))
def test_dbm_roundtrip(dbm):
    assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)


def test_feet_meters_exact_definition():
    assert feet_to_meters(1.0) == pytest.approx(0.3048)


def test_thermal_noise_20mhz():
    # kTB at 290 K over 20 MHz is about -101 dBm.
    assert thermal_noise_dbm(20e6) == pytest.approx(-100.9, abs=0.2)


def test_thermal_noise_figure_adds():
    base = thermal_noise_dbm(1e6)
    assert thermal_noise_dbm(1e6, noise_figure_db=6.0) == pytest.approx(base + 6.0)


def test_conversions_are_elementwise():
    out = db_to_linear(np.array([0.0, 10.0, 20.0]))
    assert np.allclose(out, [1.0, 10.0, 100.0])
