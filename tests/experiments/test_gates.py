"""The monotone-degradation gate shared by netgrid, subgrid and stressgrid."""

import math

import pytest

from repro.experiments import netgrid, stressgrid, subgrid
from repro.experiments.gates import MonotoneGateError, gate_monotone, step_violation


def _row(x, goodput, ber):
    return {"x": x, "goodput_kbps": goodput, "ber": ber}


def test_every_grid_raises_the_one_gate_error():
    assert netgrid.MonotoneGateError is MonotoneGateError
    assert subgrid.MonotoneGateError is MonotoneGateError
    assert stressgrid.MonotoneGateError is MonotoneGateError


def test_slack_is_relative_above_one_and_absolute_below():
    # 1000 kbps may rise by up to 1e-6 * 1000 = 1e-3 kbps.
    assert step_violation(_row(0, 1000.0, 0.1), _row(1, 1000.0009, 0.1)) is None
    assert step_violation(
        _row(0, 1000.0, 0.1), _row(1, 1000.0011, 0.1)
    ) == "goodput rose"
    # A BER below 1 may fall by up to 1e-6 * max(|BER|, 1) = 1e-6.
    assert step_violation(_row(0, 5.0, 0.2), _row(1, 5.0, 0.2 - 9e-7)) is None
    assert step_violation(_row(0, 5.0, 0.2), _row(1, 5.0, 0.2 - 1.1e-6)) == (
        "BER fell"
    )


def test_a_point_without_bits_is_not_an_improvement():
    """An undefined BER (no bits delivered) only counts through goodput."""
    assert step_violation(_row(0, 10.0, 0.01), _row(1, 0.0, math.nan)) is None


def test_error_names_the_curve_and_both_axis_values():
    rows = [_row(2, 5.0, 0.1), _row(1, 4.0, 0.1)]
    with pytest.raises(
        MonotoneGateError,
        match=r"^curve: goodput rose from 4\.000000 kbps at x=1 "
        r"to 5\.000000 kbps at x=2;",
    ):
        gate_monotone(rows, "curve", "x")
