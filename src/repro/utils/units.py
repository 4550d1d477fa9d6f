"""Unit conversions used throughout the LScatter reproduction.

The paper reports distances in feet and powers in dBm; the physics layer
works in metres and watts.  Keeping the conversions in one place avoids the
usual scattering of ``10 ** (x / 10)`` expressions through the code base.
"""

from __future__ import annotations

import numpy as np

#: metres per foot (exact, by international agreement).
METERS_PER_FOOT = 0.3048

#: Boltzmann constant in J/K, used for thermal noise floors.
BOLTZMANN = 1.380649e-23

#: Reference temperature in kelvin for thermal noise (290 K is the
#: conventional "room temperature" used in link budgets).
T0_KELVIN = 290.0


def db_to_linear(db):
    """Convert a power ratio in dB to a linear ratio.

    Works element-wise on arrays.

    >>> float(db_to_linear(10.0))
    10.0
    >>> float(db_to_linear(0.0))
    1.0
    """
    return np.power(10.0, np.asarray(db, dtype=float) / 10.0)[()]


def dbm_to_watts(dbm):
    """Convert a power in dBm to watts.

    >>> float(dbm_to_watts(0.0))
    0.001
    >>> round(float(dbm_to_watts(30.0)), 6)
    1.0
    """
    return np.power(10.0, (np.asarray(dbm, dtype=float) - 30.0) / 10.0)[()]


def watts_to_dbm(watts):
    """Convert a power in watts to dBm."""
    arr = np.asarray(watts, dtype=float)
    with np.errstate(divide="ignore"):
        return (10.0 * np.log10(arr) + 30.0)[()]


def feet_to_meters(feet):
    """Convert feet to metres (element-wise on arrays)."""
    return (np.asarray(feet, dtype=float) * METERS_PER_FOOT)[()]


def thermal_noise_dbm(bandwidth_hz, noise_figure_db=0.0):
    """Thermal noise power over ``bandwidth_hz`` in dBm.

    ``kTB`` at 290 K plus a receiver noise figure.  For a 20 MHz LTE channel
    this is about -101 dBm before the noise figure.

    >>> round(float(thermal_noise_dbm(20e6)), 1)
    -101.0
    """
    noise_watts = BOLTZMANN * T0_KELVIN * float(bandwidth_hz)
    return watts_to_dbm(noise_watts) + float(noise_figure_db)
