"""Adversarial & congested-cell scenarios with graceful tag degradation.

The stress layer composes :mod:`repro.traffic` occupancy shapes, the
:mod:`repro.faults` injection machinery and the :mod:`repro.cells`
interference path into named attack scenarios (see
:mod:`repro.stress.scenarios`), pairs them with the pipeline's graceful
degradation hooks (adaptive re-sync, SNR-gated erasure escalation, MAC
congestion backoff), and sweeps them into gated degradation curves
(:mod:`repro.stress.suite`, ``repro stress``) through the sweep harness
it shares with ``repro chaos`` (:mod:`repro.stress.perturbations`).
"""

from repro.stress.plan import StressFaultSet, StressPlan
from repro.stress.scenarios import SCENARIOS, SYNC_COUPLED, make_scenario_plan
from repro.stress.stressors import (
    BurstyPdsch,
    PssJammer,
    ReactiveJammer,
    SignallingStorm,
    SweepJammer,
    TagMob,
)
from repro.stress.suite import run_stress

__all__ = [
    "BurstyPdsch",
    "PssJammer",
    "ReactiveJammer",
    "SCENARIOS",
    "SYNC_COUPLED",
    "SignallingStorm",
    "StressFaultSet",
    "StressPlan",
    "SweepJammer",
    "TagMob",
    "make_scenario_plan",
    "run_stress",
]
