"""The stress layer's name for the one fault set.

A stress scenario is a plain :class:`~repro.faults.plan.FaultPlan` whose
``injectors`` tuple holds one stressor — a protocol-aware attacker or
congestion process (see :mod:`repro.stress.stressors`) — which the
pipeline applies through the same
:class:`~repro.faults.carrier.CarrierFaultSet` chain and the same two
hook points as the carrier injectors.  The plan keeps the whole fault
contract:

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

from repro.faults.carrier import CarrierFaultSet

#: The one fault set applies stressors too; the name stays importable.
StressFaultSet = CarrierFaultSet
