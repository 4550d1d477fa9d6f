"""Averaging circuit + voltage comparator: the PSS event detector.

Paper Fig. 7/8: the comparator's first input is the RC envelope, the
second a slow averaging circuit of the same envelope; the output goes
logic-high while the envelope exceeds its own average, i.e. during the
boosted sync symbols.  The comparator is a MAX931-class ultra-low-power
part with ~12 us propagation delay (paper §4.8) plus response jitter; both
are modelled, and together with the RC lag they produce the 30-40 us
errors of paper Fig. 31.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tag.envelope import EnvelopeDetector
from repro.utils.dsp import rc_alpha, rc_lowpass
from repro.utils.rng import make_rng

#: Comparator propagation delay (seconds), from the MAX931 datasheet.
COMPARATOR_DELAY_SECONDS = 12e-6

#: RC time constant of the averaging circuit, the comparator's reference.
AVERAGE_TAU_SECONDS = 5e-3

#: Comparator hold-off: an edge this soon after the previous accepted one
#: is chatter on envelope ripple (PSS events are 5 ms apart).
HOLDOFF_SECONDS = 4e-3

#: One-sigma jitter of the effective detection instant.  Covers comparator
#: overdrive dependence and RC charge-state variation between frames.
COMPARATOR_JITTER_SECONDS = 2.5e-6

#: The averaging RC starts uncharged; edges before it settles are
#: comparator start-up artefacts and are suppressed.
WARMUP_SECONDS = 12e-3

#: Comparator threshold: the envelope must exceed its own average by
#: this factor, which only the boosted SSS+PSS symbols do.
THRESHOLD_MARGIN = 1.6

#: Adaptive re-sync: each retry multiplies the threshold margin by this
#: factor (bounded exponential backoff towards ``MIN_THRESHOLD_MARGIN``).
RESYNC_MARGIN_BACKOFF = 0.75

#: The margin never relaxes below this — at 1.0 the comparator would fire
#: on every envelope ripple and the edge train would be pure chatter.
MIN_THRESHOLD_MARGIN = 1.05


@dataclass
class SyncResult:
    """Detected PSS events and the signals that produced them."""

    sample_rate_hz: float
    envelope: np.ndarray
    average: np.ndarray
    comparator: np.ndarray  # 0/1 logic output per sample
    edges: np.ndarray  # sample indices of rising edges
    #: Re-sync retries consumed before edges were found (0 = first pass).
    resync_attempts: int = 0
    #: The threshold margin the successful (or final) pass used.
    threshold_margin: float = 0.0

    @property
    def edge_times(self):
        return self.edges / self.sample_rate_hz

    def errors_vs(self, true_times, tolerance_seconds=1e-3):
        """Per-event sync error against ground-truth PSS times.

        For each true PSS instant, the nearest detected edge within
        ``tolerance_seconds`` contributes ``edge - truth``; unmatched
        events are skipped (they count as missed detections).
        """
        errors = []
        edge_times = self.edge_times
        for t in np.atleast_1d(true_times):
            if len(edge_times) == 0:
                continue
            delta = edge_times - t
            best = np.argmin(np.abs(delta))
            if abs(delta[best]) <= tolerance_seconds:
                errors.append(float(delta[best]))
        return np.array(errors)


class SyncCircuit:
    """The full analog sync chain: envelope -> average -> comparator."""

    def __init__(self, sample_rate_hz, rng=None, max_resync_attempts=0):
        self.sample_rate_hz = float(sample_rate_hz)
        self.detector = EnvelopeDetector(sample_rate_hz)
        self.rng = make_rng(rng)
        #: Adaptive re-sync: when the comparator finds no edges at all
        #: (a jammed or storm-raised envelope floor buries the PSS boost),
        #: retry up to this many times with the threshold margin relaxed
        #: geometrically (bounded exponential backoff,
        #: ``margin * RESYNC_MARGIN_BACKOFF**k`` floored at
        #: ``MIN_THRESHOLD_MARGIN``).  0 (the default) keeps the legacy
        #: single-pass behaviour bit-identical.
        self.max_resync_attempts = int(max_resync_attempts)

    def _comparator_edges(self, envelope, average, margin):
        """Comparator + warmup + debounce for one threshold margin."""
        comparator = (envelope > average * margin).astype(np.int8)
        edges = np.flatnonzero(np.diff(comparator) > 0) + 1
        warmup = int(WARMUP_SECONDS * self.sample_rate_hz)
        edges = edges[edges >= warmup]

        # Debounce: ignore edges inside the hold-off window of the previous
        # accepted edge (the comparator chatters on envelope ripple).
        holdoff = int(HOLDOFF_SECONDS * self.sample_rate_hz)
        accepted = []
        last = -holdoff - 1
        for edge in edges:
            if edge - last > holdoff:
                accepted.append(edge)
                last = edge
        return comparator, np.array(accepted, dtype=np.int64)

    def process(self, samples):
        """Run the circuit over a tag-side capture; returns a SyncResult."""
        trace = self.detector.detect(samples)
        envelope = trace.envelope
        alpha = rc_alpha(AVERAGE_TAU_SECONDS, self.sample_rate_hz)
        average = rc_lowpass(envelope, alpha)

        # First pass at THRESHOLD_MARGIN; adaptive re-sync relaxes it
        # geometrically only when the pass found nothing, so a clean
        # capture's result is bit-identical whatever the attempt budget.
        margin = THRESHOLD_MARGIN
        attempts = 0
        comparator, accepted = self._comparator_edges(envelope, average, margin)
        while len(accepted) == 0 and attempts < self.max_resync_attempts:
            attempts += 1
            margin = max(
                MIN_THRESHOLD_MARGIN, margin * RESYNC_MARGIN_BACKOFF
            )
            comparator, accepted = self._comparator_edges(
                envelope, average, margin
            )
            if margin == MIN_THRESHOLD_MARGIN:
                break

        # Comparator propagation delay + jitter move the logic edge later.
        if len(accepted):
            delay = COMPARATOR_DELAY_SECONDS + self.rng.normal(
                0.0, COMPARATOR_JITTER_SECONDS, size=len(accepted)
            )
            accepted = accepted + np.round(delay * self.sample_rate_hz).astype(
                np.int64
            )
            accepted = accepted[accepted < len(envelope)]

        return SyncResult(
            sample_rate_hz=self.sample_rate_hz,
            envelope=envelope,
            average=average,
            comparator=comparator,
            edges=accepted,
            resync_attempts=attempts,
            threshold_margin=float(margin),
        )
