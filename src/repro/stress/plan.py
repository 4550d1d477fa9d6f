"""Stress plans: named adversarial scenarios on top of the fault machinery.

A :class:`StressPlan` is a frozen :class:`~repro.faults.plan.FaultPlan`
labelled with the scenario and attack intensity that built it.  Its
*stressors* — protocol-aware attackers and congestion processes (see
:mod:`repro.stress.stressors`) — live on the base plan, so the pipeline
applies them through the same :class:`~repro.faults.carrier.CarrierFaultSet`
chain and the same two hook points as the carrier injectors.  The plan
inherits the whole fault contract:

* **intensity 0 is a bit-identical no-op** — every stressor at zero
  returns its input array object untouched and consumes no randomness any
  other stage sees;
* stressor randomness comes from dedicated streams
  (``plan.rng_for("stress:<name>")``), never the simulation's own spawns;
* placement draws are intensity-independent and coverage nests, so the
  degradation curves of :mod:`repro.stress.suite` are monotone by
  construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.carrier import CarrierFaultSet
from repro.faults.plan import FaultPlan, _check_unit

#: The one fault set applies stressors too; the name stays importable.
StressFaultSet = CarrierFaultSet


@dataclass(frozen=True)
class StressPlan(FaultPlan):
    """One named adversarial scenario at one attack intensity."""

    #: Scenario name (see :data:`repro.stress.scenarios.SCENARIOS`).
    scenario: str = ""
    #: Attack intensity in [0, 1]; 0 is the bit-identical no-op.
    intensity: float = 0.0

    def __post_init__(self):
        _check_unit("intensity", self.intensity)
