"""RF energy harvesting from the ambient LTE carrier.

Because LTE is continuous, a harvesting tag charges around the clock —
one more consequence of the paper's Observation 1.  The model uses a
standard rectifier efficiency curve (zero below sensitivity, rising with
input power toward a ceiling) and compares the harvested budget against
the §4.8 consumption model, yielding the duty cycle a battery-free tag
could sustain at a given distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.link import LinkBudget
from repro.tag.power import TagPowerModel
from repro.utils.units import dbm_to_watts

#: Rectifier turn-on sensitivity (dBm): below this, nothing harvests.
SENSITIVITY_DBM = -20.0

#: Peak RF-to-DC conversion efficiency at strong input.
PEAK_EFFICIENCY = 0.35

#: Input power (dBm) at which efficiency reaches ~63 % of its peak.
KNEE_DBM = -5.0

#: The reported tag: a 20 MHz carrier in a smart home, clocked by a ring
#: oscillator.
BANDWIDTH_MHZ = 20.0
VENUE = "smart_home"
CLOCK_TECHNOLOGY = "ring"


@dataclass
class HarvestReport:
    """Harvest-vs-consumption balance for one geometry."""

    incident_dbm: float
    harvested_w: float
    consumption_w: float

    @property
    def duty_cycle(self):
        """Fraction of time the tag can run from harvested power alone."""
        if self.consumption_w <= 0:
            return 1.0
        return float(min(self.harvested_w / self.consumption_w, 1.0))

    @property
    def self_sustaining(self):
        return self.harvested_w >= self.consumption_w


class HarvesterModel:
    """Rectifier + power-management model for an LScatter tag."""

    @staticmethod
    def efficiency(incident_dbm):
        """RF-to-DC efficiency at a given incident power."""
        incident_dbm = float(incident_dbm)
        if incident_dbm < SENSITIVITY_DBM:
            return 0.0
        # Saturating exponential above sensitivity.
        scale = max(KNEE_DBM - SENSITIVITY_DBM, 1e-6)
        x = (incident_dbm - SENSITIVITY_DBM) / scale
        return PEAK_EFFICIENCY * (1.0 - np.exp(-x))

    def harvested_w(self, incident_dbm, occupancy=1.0):
        """DC power harvested from a carrier present ``occupancy`` of the time."""
        rf_w = dbm_to_watts(incident_dbm)
        return float(occupancy) * self.efficiency(incident_dbm) * rf_w

    def report(self, enb_to_tag_ft):
        """Balance harvest against the §4.8 budget at one distance."""
        budget = LinkBudget(venue=VENUE)
        loss = budget.pathloss.loss_db_feet(enb_to_tag_ft, budget.carrier_hz)
        incident = budget.tx_power_dbm - loss + budget.system_gain_db / 2.0
        consumption = TagPowerModel(CLOCK_TECHNOLOGY).breakdown(BANDWIDTH_MHZ).total_w
        return HarvestReport(
            incident_dbm=float(incident),
            harvested_w=self.harvested_w(incident),
            consumption_w=consumption,
        )
