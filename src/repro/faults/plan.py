"""Fault specifications: what can break, how often, and how hard.

A :class:`FaultPlan` is an ordered tuple of IQ injectors — the carrier
injectors of :mod:`repro.faults.carrier` and the stressors of
:mod:`repro.stress.stressors`, each at one intensity in ``[0, 1]`` — plus
the tag's clock drift and the seed of every fault stream.  The hard
contract across the whole subsystem is:

    **intensity 0 is a bit-identical no-op.**

An injector at zero must return its input array unchanged (the same
object, not a copy) and consume no randomness that any other stage sees.
All fault randomness is drawn from dedicated streams derived from
:attr:`FaultPlan.seed` via :meth:`FaultPlan.rng_for`, never from the
simulation's own RNG spawn — so attaching a zero plan to a run cannot
perturb payload, fading, noise or sync draws.

Placement randomness (where dropout windows and jammer bursts land) is
drawn *before* intensity is used and with an intensity-independent number
of draws, so a sweep over intensities keeps the fault positions fixed and
only widens/strengthens them.  That makes degradation curves monotone by
construction instead of by luck (see :mod:`repro.faults.chaos`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import make_rng
from repro.utils.validation import require_finite, require_whole


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
        require_finite("hang_seconds", self.hang_seconds, minimum=0.0)


@dataclass(frozen=True)
class FaultPlan:
    """One composable fault configuration for a run."""

    #: IQ injectors; each hook of
    #: :class:`~repro.faults.carrier.CarrierFaultSet` runs them in order.
    injectors: tuple = ()
    #: Tag clock drift in ppm; accumulates between PSS re-syncs, so large
    #: values walk the chip windows out of the paper's 38.8 % guard.
    clock_drift_ppm: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # Either sign is a real clock; NaN/inf would fail deep in scheduling.
        require_finite("clock_drift_ppm", self.clock_drift_ppm)
        require_whole("seed", self.seed)

    @property
    def is_noop(self):
        return self.clock_drift_ppm == 0.0 and not any(
            injector.active for injector in self.injectors
        )

    def rng_for(self, name):
        """A dedicated, reproducible stream for one injector.

        Independent of the simulation seed and of every other injector;
        re-created per use so fault *positions* depend only on
        ``(name, plan seed)`` — not on intensity or call order.
        """
        return make_rng(f"lscatter-fault:{name}:{int(self.seed)}")

    def drift_per_half_frame(self, params):
        """Clock-drift accumulation per half-frame, in samples.

        ``clock_drift_ppm`` of the tag clock over one 5 ms half-frame; the
        controller adds ``k * drift`` to the k-th half-frame's chip windows.
        """
        half_frame_samples = params.samples_per_frame / 2.0
        return self.clock_drift_ppm * 1e-6 * half_frame_samples

    @classmethod
    def none(cls, seed=0):
        """An explicit all-zero plan (useful for no-op contract tests)."""
        return cls(seed=seed)
