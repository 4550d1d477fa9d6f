"""Fault specifications: what can break, how often, and how hard.

Every knob is a *rate* or *severity* in ``[0, 1]`` (plus a few physical
scale parameters), and the hard contract across the whole subsystem is:

    **rate/severity 0 is a bit-identical no-op.**

An injector at zero must return its input array unchanged (the same
object, not a copy) and consume no randomness that any other stage sees.
All fault randomness is drawn from dedicated streams derived from
:attr:`FaultPlan.seed` via :meth:`FaultPlan.rng_for`, never from the
simulation's own RNG spawn — so attaching a zero plan to a run cannot
perturb payload, fading, noise or sync draws.

Placement randomness (where dropout windows and jammer bursts land) is
drawn *before* severity is used and with a severity-independent number of
draws, so a sweep over severities keeps the fault positions fixed and
only widens/strengthens them.  That makes degradation curves monotone by
construction instead of by luck (see :mod:`repro.faults.chaos`).

A plan also carries the :mod:`repro.stress` stressors, which
:class:`~repro.faults.carrier.CarrierFaultSet` chains after the carrier
injectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.utils.rng import make_rng


def _check_unit(name, value):
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _check_finite(name, value):
    if not math.isfinite(float(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_nonnegative(name, value):
    _check_finite(name, value)
    if not float(value) >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class CarrierFaults:
    """Impairments of the ambient carrier and the receiver front end."""

    #: Fraction of the capture inside eNodeB dropout (gap) windows.
    dropout_rate: float = 0.0
    #: Number of distinct dropout windows the fraction is spread over.
    dropout_windows: int = 3
    #: Fraction of the capture covered by narrowband jammer bursts.
    jammer_severity: float = 0.0
    #: Number of distinct jammer bursts.
    jammer_bursts: int = 2
    #: Jammer tone amplitude relative to the affected band's RMS.
    jammer_amplitude: float = 4.0
    #: Fraction of samples hit by impulsive (e.g. ignition/switching) noise.
    impulse_rate: float = 0.0
    #: Impulse amplitude relative to the affected band's RMS.
    impulse_amplitude: float = 30.0
    #: ADC clipping severity: 0 = no clipping, 1 = clip at 10 % of peak.
    clip_severity: float = 0.0

    def __post_init__(self):
        _check_unit("dropout_rate", self.dropout_rate)
        _check_unit("jammer_severity", self.jammer_severity)
        _check_unit("impulse_rate", self.impulse_rate)
        _check_unit("clip_severity", self.clip_severity)
        _check_nonnegative("jammer_amplitude", self.jammer_amplitude)
        _check_nonnegative("impulse_amplitude", self.impulse_amplitude)
        if self.dropout_windows < 1 or self.jammer_bursts < 1:
            raise ValueError("window/burst counts must be >= 1")

    @property
    def is_noop(self):
        return (
            self.dropout_rate == 0.0
            and self.jammer_severity == 0.0
            and self.impulse_rate == 0.0
            and self.clip_severity == 0.0
        )


@dataclass(frozen=True)
class TagFaults:
    """Failures of the tag's analog sync chain and clock."""

    #: Probability each comparator PSS edge is missed (dropped).
    pss_miss_rate: float = 0.0
    #: Per-half-frame probability of a spurious comparator edge
    #: (false fire on a data burst).
    false_fire_rate: float = 0.0
    #: Tag clock drift in ppm; accumulates between PSS re-syncs, so large
    #: values walk the chip windows out of the paper's 38.8 % guard.
    clock_drift_ppm: float = 0.0

    def __post_init__(self):
        _check_unit("pss_miss_rate", self.pss_miss_rate)
        _check_unit("false_fire_rate", self.false_fire_rate)
        # Either sign is a real clock; NaN/inf would fail deep in scheduling.
        _check_finite("clock_drift_ppm", self.clock_drift_ppm)

    @property
    def is_noop(self):
        return (
            self.pss_miss_rate == 0.0
            and self.false_fire_rate == 0.0
            and self.clock_drift_ppm == 0.0
        )


@dataclass(frozen=True)
class InfraFaults:
    """Failures of the fleet execution substrate (not the radio)."""

    #: Task indices whose worker raises (worker-process-only, so a parent
    #: retry of the pure task reproduces the clean result).
    crash_tasks: tuple = ()
    #: Task indices whose worker hangs for ``hang_seconds``.
    hang_tasks: tuple = ()
    hang_seconds: float = 30.0

    def __post_init__(self):
        _check_nonnegative("hang_seconds", self.hang_seconds)

    @property
    def is_noop(self):
        return not self.crash_tasks and not self.hang_tasks


@dataclass(frozen=True)
class FaultPlan:
    """One composable fault configuration for a run."""

    carrier: CarrierFaults = field(default_factory=CarrierFaults)
    tag: TagFaults = field(default_factory=TagFaults)
    seed: int = 0
    #: Stressors (:mod:`repro.stress.stressors`) run after the carrier ones.
    stressors: tuple = ()

    @property
    def is_noop(self):
        return (
            self.carrier.is_noop
            and self.tag.is_noop
            and not any(s.active for s in self.stressors)
        )

    def rng_for(self, name):
        """A dedicated, reproducible stream for one injector.

        Independent of the simulation seed and of every other injector;
        re-created per use so fault *positions* depend only on
        ``(name, plan seed)`` — not on severity or call order.
        """
        return make_rng(f"lscatter-fault:{name}:{int(self.seed)}")

    @classmethod
    def none(cls, seed=0):
        """An explicit all-zero plan (useful for no-op contract tests)."""
        return cls(seed=seed)
