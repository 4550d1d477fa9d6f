"""Carrier-level fault injectors: impairments of the IQ stream.

Every injector, here and in :mod:`repro.stress.stressors`, has a
``name``, a ``hook`` (``"ambient"`` or ``"backscatter"``) and
``apply(samples, rng, ambient=None) -> ndarray`` (only the tag-mob
stressor reads ``ambient``), and keeps the zero-severity contract: when
inactive it returns the *input array object* untouched.  When active it
always works on a copy (the input may be a read-only memory map shared
across worker processes).

Severity sweeps stay monotone by construction: every injector draws its
placement randomness (anchors, tone frequency/phase, per-sample uniforms)
with a severity-independent number of draws, and severity only *extends*
the affected region (nested windows / nested sample sets) or scales
amplitude.  The sample set impaired at severity ``s1`` is therefore a
subset of the set impaired at ``s2 > s1``, and unaffected samples are
bit-identical across the sweep.
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics as obs_metrics


def _rms(samples):
    value = float(np.sqrt(np.mean(np.abs(samples) ** 2))) if len(samples) else 0.0
    return value if value > 0.0 else 1.0


class AmbientDropout:
    """eNodeB gap: the ambient carrier goes dark for whole windows.

    Models scheduling gaps / cell outages — the dominant ambient-carrier
    failure for a passive tag, which has nothing to ride during the gap.
    """

    name = "dropout"
    hook = "ambient"

    def __init__(self, rate, n_windows=3):
        self.rate = float(rate)
        self.n_windows = max(1, int(n_windows))

    @property
    def active(self):
        return self.rate > 0.0

    def apply(self, samples, rng, ambient=None):
        if not self.active:
            return samples
        n = len(samples)
        anchors = np.sort(rng.integers(0, n, size=self.n_windows))
        width = min(n, max(1, int(round(self.rate * n / self.n_windows))))
        out = np.array(samples)
        for anchor in anchors:
            # Wrap around the capture end so a window keeps growing with
            # rate instead of saturating against the boundary — coverage
            # then scales with rate for any anchor draw.
            idx = (np.arange(int(anchor), int(anchor) + width)) % n
            out[idx] = 0.0
        return out


class NarrowbandJammer:
    """A strong in-band CW interferer, bursting on and off.

    ``severity`` scales the total jammed fraction of the capture (burst
    extents grow around fixed anchors); the tone amplitude is a fixed
    multiple of the affected band's RMS, so already-jammed samples are
    identical across a severity sweep and new samples only get *added* to
    the jammed set.
    """

    name = "jammer"
    hook = "backscatter"

    def __init__(self, severity, n_bursts=2, amplitude_rel=4.0):
        self.severity = float(severity)
        self.n_bursts = max(1, int(n_bursts))
        self.amplitude_rel = float(amplitude_rel)

    @property
    def active(self):
        return self.severity > 0.0

    def apply(self, samples, rng, ambient=None):
        # Placement draws happen in a fixed order and count (anchors,
        # frequency, phase) so they are severity-independent.
        if not self.active:
            return samples
        n = len(samples)
        anchors = np.sort(rng.integers(0, n, size=self.n_bursts))
        freq = float(rng.uniform(-0.45, 0.45))  # cycles per sample
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        amp = self.amplitude_rel * _rms(samples)
        width = min(n, max(1, int(round(self.severity * n / self.n_bursts))))
        # One tone over the *union* of the bursts: where widened bursts
        # overlap, the sample still receives the tone exactly once, so
        # already-jammed samples stay identical as severity grows.  Bursts
        # wrap around the capture end so coverage scales with severity
        # instead of saturating against the boundary.
        mask = np.zeros(n, dtype=bool)
        for anchor in anchors:
            mask[(np.arange(int(anchor), int(anchor) + width)) % n] = True
        idx = np.flatnonzero(mask)
        out = np.array(samples)
        # Absolute sample index in the tone argument keeps a burst's
        # samples identical when a higher severity widens it.
        out[idx] += amp * np.exp(1j * (2.0 * np.pi * freq * idx + phase))
        return out


class ImpulsiveNoise:
    """Sparse high-amplitude impulses (switching transients, ignition)."""

    name = "impulse"
    hook = "backscatter"

    def __init__(self, rate, amplitude_rel=30.0):
        self.rate = float(rate)
        self.amplitude_rel = float(amplitude_rel)

    @property
    def active(self):
        return self.rate > 0.0

    def apply(self, samples, rng, ambient=None):
        if not self.active:
            return samples
        n = len(samples)
        # One uniform per sample: the hit set at rate r1 is nested inside
        # the hit set at r2 > r1, and each hit's phase is fixed.
        uniforms = rng.random(n)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        mask = uniforms < self.rate
        if not mask.any():
            return samples
        out = np.array(samples)
        out[mask] += self.amplitude_rel * _rms(samples) * np.exp(1j * phases[mask])
        return out


class AdcClipper:
    """Receiver ADC saturation: magnitudes clipped at a shrinking level.

    Severity 0 leaves everything below the clip level; severity 1 clips at
    10 % of the capture's peak magnitude (phase is preserved — ideal
    limiter model of a saturated front end).
    """

    name = "clip"
    hook = "backscatter"

    def __init__(self, severity):
        self.severity = float(severity)

    @property
    def active(self):
        return self.severity > 0.0

    def apply(self, samples, rng, ambient=None):
        if not self.active:
            return samples
        magnitude = np.abs(samples)
        peak = float(magnitude.max()) if len(samples) else 0.0
        if peak == 0.0:
            return samples
        level = peak * (1.0 - 0.9 * self.severity)
        scale = np.minimum(1.0, level / np.maximum(magnitude, 1e-30))
        return samples * scale


class CarrierFaultSet:
    """All injectors of one :class:`~repro.faults.plan.FaultPlan`, as one chain.

    Dropout, jammer, impulse, clip, then the plan's stressors; each hook
    runs its injectors in that order.  Dropout hits the *transmitted*
    ambient (an eNodeB gap degrades the tag and the UE alike); jammer,
    impulses and clipping hit the backscatter receive chain, where the
    weak shifted-band signal is most vulnerable.
    """

    def __init__(self, plan):
        carrier = plan.carrier
        self._plan = plan
        base = (
            AmbientDropout(carrier.dropout_rate, carrier.dropout_windows),
            NarrowbandJammer(
                carrier.jammer_severity, carrier.jammer_bursts, carrier.jammer_amplitude
            ),
            ImpulsiveNoise(carrier.impulse_rate, carrier.impulse_amplitude),
            AdcClipper(carrier.clip_severity),
        )
        # (injector, plan.rng_for stream, activation counter), in order.
        self._chain = tuple(
            (injector, injector.name, f"faults.activations.{injector.name}")
            for injector in base
        ) + tuple(
            (s, f"stress:{s.name}", f"stress.activations.{s.name}")
            for s in plan.stressors
        )

    @property
    def active(self):
        return any(injector.active for injector, _, _ in self._chain)

    def _apply(self, samples, hook, ambient=None):
        for injector, stream, counter in self._chain:
            if injector.hook == hook and injector.active:
                obs_metrics.counter_inc(counter)
                samples = injector.apply(
                    samples, self._plan.rng_for(stream), ambient=ambient
                )
        return samples

    def apply_ambient(self, unit):
        """Faults applied at the eNodeB."""
        return self._apply(unit, "ambient")

    def apply_backscatter(self, rx, ambient=None):
        """Faults applied at the UE's backscatter band front end."""
        return self._apply(rx, "backscatter", ambient=ambient)
