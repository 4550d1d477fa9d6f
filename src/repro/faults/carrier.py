"""Carrier-level fault injectors: impairments of the IQ stream.

Every injector, here and in :mod:`repro.stress.stressors`, is an
:class:`Injector` at one ``intensity`` in [0, 1] with a ``name``, a
``hook`` (``"ambient"`` or ``"backscatter"``) and ``apply(samples, rng,
ambient=None) -> ndarray`` (only the tag-mob stressor reads ``ambient``),
and keeps the zero-intensity contract: when inactive it returns the
*input array object* untouched.  When active it always works on a copy
(the input may be a read-only memory map shared across worker processes).
The sizes an intensity does not scale (window and burst counts,
amplitudes) are class constants.

Intensity sweeps stay monotone by construction: every injector draws its
placement randomness (anchors, tone frequency/phase, per-sample uniforms)
with an intensity-independent number of draws, and intensity only
*extends* the affected region (nested windows / nested sample sets) or
scales amplitude.  The sample set impaired at intensity ``s1`` is
therefore a subset of the set impaired at ``s2 > s1``, and unaffected
samples are bit-identical across the sweep.
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics as obs_metrics


def _rms(samples):
    value = float(np.sqrt(np.mean(np.abs(samples) ** 2))) if len(samples) else 0.0
    return value if value > 0.0 else 1.0


def _window_mask(rng, n, count, intensity):
    """The union of ``count`` windows at sorted random anchors in ``n`` samples.

    Draws the ``count`` anchors (one intensity-independent call).  Each
    window is ``intensity * n / count`` samples wide (at least 1, at most
    ``n``) and wraps around the capture end, so a window keeps growing
    with intensity instead of saturating against the boundary — coverage
    then scales with intensity for any anchor draw.
    """
    anchors = np.sort(rng.integers(0, n, size=count))
    width = min(n, max(1, int(round(intensity * n / count))))
    mask = np.zeros(n, dtype=bool)
    for anchor in anchors:
        mask[np.arange(int(anchor), int(anchor) + width) % n] = True
    return mask


class Injector:
    """One IQ impairment at one intensity in [0, 1]; 0 is a no-op."""

    #: ``plan.rng_for`` stream is ``stream_prefix + name``.
    stream_prefix = ""
    #: Activation counter is ``<counter_prefix>.activations.<name>``.
    counter_prefix = "faults"

    def __init__(self, intensity):
        if not 0.0 <= float(intensity) <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {intensity!r}")
        self.intensity = float(intensity)

    @property
    def active(self):
        return self.intensity > 0.0

    @property
    def stream(self):
        return self.stream_prefix + self.name

    @property
    def counter(self):
        return f"{self.counter_prefix}.activations.{self.name}"


class AmbientDropout(Injector):
    """eNodeB gap: the ambient carrier goes dark for whole windows.

    Models scheduling gaps / cell outages — the dominant ambient-carrier
    failure for a passive tag, which has nothing to ride during the gap.
    ``intensity`` is the fraction of the capture inside the windows.
    """

    name = "dropout"
    hook = "ambient"

    #: Distinct windows the dropped fraction is spread over.
    N_WINDOWS = 3

    def apply(self, samples, rng, ambient=None):
        if not self.active:
            return samples
        mask = _window_mask(rng, len(samples), self.N_WINDOWS, self.intensity)
        out = np.array(samples)
        out[mask] = 0.0
        return out


class NarrowbandJammer(Injector):
    """A strong in-band CW interferer, bursting on and off.

    ``intensity`` scales the total jammed fraction of the capture (burst
    extents grow around fixed anchors); the tone amplitude is a fixed
    multiple of the affected band's RMS, so already-jammed samples are
    identical across an intensity sweep and new samples only get *added*
    to the jammed set.
    """

    name = "jammer"
    hook = "backscatter"

    #: Distinct jammer bursts.
    N_BURSTS = 2
    #: Tone amplitude relative to the affected band's RMS.
    AMPLITUDE_REL = 4.0

    def apply(self, samples, rng, ambient=None):
        # Placement draws happen in a fixed order and count (anchors,
        # frequency, phase) so they are intensity-independent.
        if not self.active:
            return samples
        mask = _window_mask(rng, len(samples), self.N_BURSTS, self.intensity)
        freq = float(rng.uniform(-0.45, 0.45))  # cycles per sample
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        amp = self.AMPLITUDE_REL * _rms(samples)
        # One tone over the *union* of the bursts: where widened bursts
        # overlap, the sample still receives the tone exactly once, so
        # already-jammed samples stay identical as intensity grows.
        idx = np.flatnonzero(mask)
        out = np.array(samples)
        # Absolute sample index in the tone argument keeps a burst's
        # samples identical when a higher intensity widens it.
        out[idx] += amp * np.exp(1j * (2.0 * np.pi * freq * idx + phase))
        return out


class ImpulsiveNoise(Injector):
    """Sparse high-amplitude impulses (switching transients, ignition).

    ``intensity`` is the fraction of samples hit.
    """

    name = "impulse"
    hook = "backscatter"

    #: Impulse amplitude relative to the affected band's RMS.
    AMPLITUDE_REL = 30.0

    def apply(self, samples, rng, ambient=None):
        if not self.active:
            return samples
        n = len(samples)
        # One uniform per sample: the hit set at rate r1 is nested inside
        # the hit set at r2 > r1, and each hit's phase is fixed.
        uniforms = rng.random(n)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        mask = uniforms < self.intensity
        if not mask.any():
            return samples
        out = np.array(samples)
        out[mask] += self.AMPLITUDE_REL * _rms(samples) * np.exp(1j * phases[mask])
        return out


class AdcClipper(Injector):
    """Receiver ADC saturation: magnitudes clipped at a shrinking level.

    Intensity 0 leaves everything below the clip level; intensity 1 clips
    at 10 % of the capture's peak magnitude (phase is preserved — ideal
    limiter model of a saturated front end).
    """

    name = "clip"
    hook = "backscatter"

    def apply(self, samples, rng, ambient=None):
        if not self.active:
            return samples
        magnitude = np.abs(samples)
        peak = float(magnitude.max()) if len(samples) else 0.0
        if peak == 0.0:
            return samples
        level = peak * (1.0 - 0.9 * self.intensity)
        scale = np.minimum(1.0, level / np.maximum(magnitude, 1e-30))
        return samples * scale


class CarrierFaultSet:
    """A :class:`~repro.faults.plan.FaultPlan`'s injectors, as one chain.

    Each hook runs the plan's injectors of that hook in plan order, each
    on the previous one's output with its own ``plan.rng_for`` stream.
    Dropout hits the *transmitted* ambient (an eNodeB gap degrades the tag
    and the UE alike); jammer, impulses and clipping hit the backscatter
    receive chain, where the weak shifted-band signal is most vulnerable.
    """

    def __init__(self, plan):
        self._plan = plan

    def _apply(self, samples, hook, ambient=None):
        for injector in self._plan.injectors:
            if injector.hook == hook and injector.active:
                obs_metrics.counter_inc(injector.counter)
                samples = injector.apply(
                    samples, self._plan.rng_for(injector.stream), ambient=ambient
                )
        return samples

    def apply_ambient(self, unit):
        """Faults applied at the eNodeB."""
        return self._apply(unit, "ambient")

    def apply_backscatter(self, rx, ambient=None):
        """Faults applied at the UE's backscatter band front end."""
        return self._apply(rx, "backscatter", ambient=ambient)
