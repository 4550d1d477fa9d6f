"""Protocol-aware stressors: the attack and congestion waveform injectors.

Every stressor is an :class:`~repro.faults.carrier.Injector` like the
carrier injectors of :mod:`repro.faults.carrier`: one ``intensity`` in
[0, 1], ``name`` and ``hook`` class attributes (``"ambient"`` = applied
at the eNodeB, so tag and UE both see it; ``"backscatter"`` = applied to
the UE's shifted-band receive chain, where the weak tag signal lives) and
``apply(samples, rng, ambient=None) -> ndarray``, returning the input
object untouched when inactive and working on a copy when active.  A
stressor draws from the plan stream ``"stress:<name>"`` and counts its
activations under ``stress.activations.<name>``; it runs wherever its
plan's ``injectors`` tuple puts it in
:class:`~repro.faults.carrier.CarrierFaultSet`'s chain.  Only the tag-mob
co-channel interferers read ``ambient`` (the clean tag-side ambient the
ghosts reflect).

Unlike the generic carrier injectors, these know the LTE frame geometry:
the signalling storm loads the PDCCH control region, the PSS jammer hits
exactly the sync symbols the tag's comparator harvests, and the reactive
jammer fires only during the data symbols tag packets occupy.

Monotonicity discipline (inherited from :mod:`repro.faults.plan`): all
placement randomness (burst centres, region permutations, tone
frequency/phase, ghost chip streams) is drawn in a fixed order with an
intensity-independent draw count, and intensity only grows a *nested*
affected-region set — via :func:`repro.traffic.models.nested_busy_mask`
or a permutation prefix — with amplitudes fixed and tone phases keyed to
the absolute sample index.  Already-affected samples are therefore
bit-identical across an intensity sweep, which is what lets
:mod:`repro.stress.suite` gate the degradation curves.
"""

from __future__ import annotations

import numpy as np

from repro.cells.interference import ghost_tag_offsets
from repro.faults.carrier import Injector, _rms
from repro.lte.ofdm import frame_layout
from repro.lte.params import SLOTS_PER_FRAME
from repro.lte.pss import PSS_SLOTS, PSS_SYMBOL_IN_SLOT
from repro.lte.resource_grid import symbol_index
from repro.lte.sss import SSS_SYMBOL_IN_SLOT
from repro.traffic.models import nested_busy_mask


def _symbol_span(params, frame, slot, first_symbol, last_symbol):
    """Sample range [lo, hi) of a run of symbols inside one frame."""
    layout = frame_layout(params)
    first = symbol_index(slot, first_symbol)
    last = symbol_index(slot, last_symbol)
    base = frame * params.samples_per_frame
    lo = base + int(layout.starts[first])
    hi = base + int(layout.starts[last] + layout.lengths[last])
    return lo, hi


def _tone(idx, amplitude, freq, phase):
    """A CW tone evaluated at absolute sample indices.

    Keying the argument to the absolute index keeps a region's samples
    identical when a higher intensity merely adds *more* regions.
    """
    return amplitude * np.exp(1j * (2.0 * np.pi * freq * idx + phase))


class _Stressor(Injector):
    """An injector laid out against one carrier's LTE frame geometry."""

    stream_prefix = "stress:"
    counter_prefix = "stress"

    def __init__(self, intensity, params):
        super().__init__(intensity)
        self.params = params


class _ToneRegions(_Stressor):
    """A stressor keying one CW tone over a nested subset of frame regions.

    A subclass lists the sample span of every region of a capture
    (:meth:`_spans`) and sets ``AMPLITUDE_REL``.  The placement draws come
    in one fixed order and count (the region permutation, the tone
    frequency, then its phase), and intensity keys the tone over the first
    ``ceil(intensity * n_regions)`` regions of the permutation.
    """

    def _spans(self, n):
        """Sample range [lo, hi) of every region of an ``n``-sample capture."""
        raise NotImplementedError

    def apply(self, samples, rng, ambient=None):
        if not self.active:
            return samples
        n = len(samples)
        spans = self._spans(n)
        order = rng.permutation(len(spans))
        freq = float(rng.uniform(-0.45, 0.45))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        amp = self.AMPLITUDE_REL * _rms(samples)
        k = int(np.ceil(self.intensity * len(spans)))
        out = np.array(samples)
        for region in order[:k]:
            lo, hi = spans[int(region)]
            idx = np.arange(lo, min(hi, n))
            out[idx] += _tone(idx, amp, freq, phase)
        return out


class BurstyPdsch(_Stressor):
    """Congested-cell PDSCH: heavy-traffic bursts overload the downlink.

    Adds a delayed copy of the cell's own waveform (uncorrelated resource
    blocks — the scheduler serving other UEs) over nested busy windows.
    At full intensity the bursts cover ``BUSY_FRACTION_AT_FULL`` of the
    capture, drowning the idle half-frames tags harvest.
    """

    name = "bursty-pdsch"
    hook = "ambient"

    #: Capture fraction under burst load at intensity 1.
    BUSY_FRACTION_AT_FULL = 0.6
    #: Overload power relative to the carrier RMS (heavy-traffic cell).
    OVERLOAD_AMPLITUDE_REL = 2.0
    #: Nested busy windows the burst load is spread over.
    N_BURSTS = 6

    def apply(self, samples, rng, ambient=None):
        if not self.active:
            return samples
        n = len(samples)
        # Placement draws first, in fixed order: the echo delay, then the
        # burst centres inside nested_busy_mask.
        delay = int(rng.integers(1, max(n, 2)))
        mask = nested_busy_mask(
            n, self.BUSY_FRACTION_AT_FULL * self.intensity, self.N_BURSTS, rng
        )
        idx = np.flatnonzero(mask)
        if not len(idx):
            return samples
        out = np.array(samples)
        load = np.roll(np.asarray(samples), delay)
        out[idx] += self.OVERLOAD_AMPLITUDE_REL * load[idx]
        return out


class SignallingStorm(_ToneRegions):
    """RACH-flood-shaped storm: the PDCCH control region saturates.

    A signalling storm (mass RACH, paging bursts) shows up downlink as
    sustained control-region load — symbols 0..2 of each subframe's first
    slot.  Intensity selects a nested (permutation-prefix) subset of the
    capture's subframes and loads exactly those control regions with a
    strong deterministic tone, eating the scheduling headroom tags ride
    while leaving PSS/SSS untouched (sync survives; capacity does not).
    """

    name = "signalling-storm"
    hook = "ambient"

    #: Control-region symbols per subframe (PDCCH span).
    CONTROL_SYMBOLS = 3
    #: Storm load amplitude relative to the carrier RMS.
    AMPLITUDE_REL = 3.0

    def _spans(self, n):
        """Each subframe's control region, subframe by subframe."""
        n_subframes = max(1, (n // self.params.samples_per_frame) * 10)
        return [
            _symbol_span(
                self.params, subframe // 10, 2 * (subframe % 10), 0,
                self.CONTROL_SYMBOLS - 1,
            )
            for subframe in range(n_subframes)
        ]


class SweepJammer(_Stressor):
    """A swept-frequency (chirp) jammer raking the backscatter band."""

    name = "sweep-jammer"
    hook = "backscatter"

    #: Capture fraction jammed at intensity 1.
    COVER_AT_FULL = 0.5
    #: Chirp amplitude relative to the receive-chain RMS.
    AMPLITUDE_REL = 4.0
    #: Nested bursts the chirp is keyed on.
    N_BURSTS = 3

    def apply(self, samples, rng, ambient=None):
        if not self.active:
            return samples
        n = len(samples)
        # Fixed-order placement draws: start frequency, phase, sweep span,
        # then burst centres.
        f0 = float(rng.uniform(-0.45, 0.0))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        span_cycles = float(rng.uniform(0.2, 0.45))
        mask = nested_busy_mask(
            n, self.COVER_AT_FULL * self.intensity, self.N_BURSTS, rng
        )
        idx = np.flatnonzero(mask)
        if not len(idx):
            return samples
        amp = self.AMPLITUDE_REL * _rms(samples)
        out = np.array(samples)
        # Linear chirp keyed to the absolute index: instantaneous frequency
        # walks f0 -> f0 + span over the capture, identically at every
        # intensity, so widened bursts only add newly-jammed samples.
        arg = 2.0 * np.pi * (f0 * idx + 0.5 * span_cycles * idx**2 / max(n, 1))
        out[idx] += amp * np.exp(1j * (arg + phase))
        return out


class ReactiveJammer(_ToneRegions):
    """Protocol-aware reactive jammer: fires only on tag data symbols.

    A reactive jammer senses the tag's modulated reflection and keys up
    for exactly the data-symbol spans of each slot (symbols 1..6 — the
    windows :mod:`repro.bsrx` slices bits from), skipping the sync slots
    so it stays hard to detect from the sync side.  Intensity selects a
    nested permutation-prefix subset of the capture's per-slot data spans.
    """

    name = "reactive-jammer"
    hook = "backscatter"

    #: Jammer amplitude relative to the receive-chain RMS.
    AMPLITUDE_REL = 4.0

    def _spans(self, n):
        """Each non-sync slot's data symbols, frame by frame."""
        n_frames = max(1, n // self.params.samples_per_frame)
        return [
            _symbol_span(self.params, frame, slot, 1, 6)
            for frame in range(n_frames)
            for slot in range(SLOTS_PER_FRAME)
            if slot not in PSS_SLOTS
        ]


class PssJammer(_ToneRegions):
    """Sync-targeted jammer: buries the PSS/SSS boost the tag detects.

    The nastiest protocol-aware attack for a passive tag: jam only the
    sync symbols (SSS + PSS, symbols 5..6 of slots 0 and 10) of a nested
    subset of half-frames, on the *ambient* side so the tag's envelope
    detector sees a raised floor exactly where it expects the boost.
    Per arXiv 2506.01743, sync loss is the first failure mode under
    hostile ambients — this stressor produces it on demand.
    """

    name = "pss-jammer"
    hook = "ambient"

    #: Jammer amplitude relative to the carrier RMS (must rival the
    #: paper's ~2 dB PSS boost to matter).
    AMPLITUDE_REL = 3.0

    def _spans(self, n):
        """Each half-frame's SSS + PSS symbols, half-frame by half-frame."""
        n_half = max(1, n // (self.params.samples_per_frame // 2))
        return [
            _symbol_span(
                self.params, h // 2, PSS_SLOTS[h % 2],
                SSS_SYMBOL_IN_SLOT, PSS_SYMBOL_IN_SLOT,
            )
            for h in range(n_half)
        ]


class TagMob(_Stressor):
    """Intra-cell tag-to-tag interference: a mob of unscheduled ghosts.

    Each ghost tag reflects the same ambient carrier with its own chip
    stream at its own deterministic timing offset
    (:func:`repro.cells.interference.ghost_tag_offsets`) — co-channel
    interference in the shifted band that no filter separates.  Ghost
    ``g`` transmits only in half-frames with ``h % N_GHOSTS == g``, so
    the ghosts' footprints are disjoint and intensity (which activates
    ``ceil(intensity * N_GHOSTS)`` ghosts, a nested set) grows the
    affected sample set without touching already-interfered samples.
    Sync symbols are left clean: real tags keep quiet during PSS/SSS too.
    """

    name = "tag-mob"
    hook = "backscatter"

    #: Ghost reflection amplitude relative to the receive-chain RMS
    #: (comparable-power co-channel tags at similar range).
    AMPLITUDE_REL = 1.0
    #: Ghost tags in the mob at intensity 1.
    N_GHOSTS = 4

    def _sync_clean_mask(self, n):
        """True where ghosts may transmit (everything but sync symbols)."""
        spf = self.params.samples_per_frame
        mask = np.ones(n, dtype=bool)
        for frame in range(max(1, n // spf)):
            for slot in PSS_SLOTS:
                lo, hi = _symbol_span(
                    self.params, frame, slot,
                    SSS_SYMBOL_IN_SLOT, PSS_SYMBOL_IN_SLOT,
                )
                mask[lo : min(hi, n)] = False
        return mask

    def apply(self, samples, rng, ambient=None):
        if not self.active:
            return samples
        n = len(samples)
        half = self.params.samples_per_frame // 2
        # Ghost chips are drawn for EVERY ghost regardless of intensity
        # (fixed draw count); one chip per half-symbol keeps the streams
        # spectrally plausible without tracking the tag's exact rate.
        chip_len = max(1, self.params.fft_size // 2)
        n_chips = n // chip_len + 1
        chips_all = (
            rng.integers(0, 2, size=(self.N_GHOSTS, n_chips)) * 2 - 1
        ).astype(np.int8)
        base = np.asarray(ambient if ambient is not None else samples)
        m = min(n, len(base))
        # Normalise the reflected carrier so each ghost lands at
        # AMPLITUDE_REL x the receive-chain RMS regardless of the tag-side
        # path loss baked into the ambient.
        base = base[:m] / _rms(base[:m])
        offsets = ghost_tag_offsets(
            self.N_GHOSTS, self.params.samples_per_frame
        )
        clean = self._sync_clean_mask(n)
        amp = self.AMPLITUDE_REL * _rms(samples)
        k = int(np.ceil(self.intensity * self.N_GHOSTS))
        out = np.array(samples)
        positions = np.arange(m)
        half_frame_of = positions // half
        for g in range(k):
            stream = np.repeat(chips_all[g], chip_len)[:m]
            owned = (half_frame_of % self.N_GHOSTS) == g
            idx = np.flatnonzero(owned & clean[:m])
            if not len(idx):
                continue
            ghost = np.roll(base, offsets[g])
            out[idx] += amp * stream[idx] * ghost[idx]
        return out
