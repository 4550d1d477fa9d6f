"""Deterministic, seeded fault injection for every stage boundary.

The paper's premise is an *uncontrolled* ambient carrier; this package
makes the uncontrolled part first-class:

* :mod:`repro.faults.plan` — composable fault specifications
  (:class:`FaultPlan` = an ordered tuple of IQ injectors, the tag's clock
  drift and the fault seed; :class:`InfraFaults` for the fleet
  substrate), with the hard contract that intensity 0 is a bit-identical
  no-op;
* :mod:`repro.faults.carrier` — IQ-stream injectors (ambient dropout
  windows, narrowband jammer bursts, impulsive noise, ADC clipping), the
  base class they share with the :mod:`repro.stress` stressors, and the
  chain that applies a plan's injectors;
* :mod:`repro.faults.infra` — fleet-substrate injectors: worker crash,
  worker hang, scratch-file corruption;
* :mod:`repro.faults.chaos` — the ``repro chaos`` harness sweeping fault
  severity into degradation curves (``CHAOS_PR3.json``).  Imported lazily
  (``from repro.faults.chaos import run_chaos``) because it depends on the
  full pipeline.

Attach a :class:`FaultPlan` via ``SystemConfig(faults=...)``; graceful
degradation on the receive side (erasure marking, PSS re-acquisition) is
enabled with ``SystemConfig(erasure_threshold=...)``.
"""

from repro.faults.carrier import (
    AdcClipper,
    AmbientDropout,
    CarrierFaultSet,
    ImpulsiveNoise,
    NarrowbandJammer,
)
from repro.faults.infra import (
    FaultyTask,
    InjectedWorkerCrash,
    bitflip_file,
    truncate_file,
)
from repro.faults.plan import FaultPlan, InfraFaults

__all__ = [
    "AdcClipper",
    "AmbientDropout",
    "CarrierFaultSet",
    "ImpulsiveNoise",
    "NarrowbandJammer",
    "FaultyTask",
    "InjectedWorkerCrash",
    "bitflip_file",
    "truncate_file",
    "FaultPlan",
    "InfraFaults",
]
