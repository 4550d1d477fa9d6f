"""Link-level metrics: BER, throughput, window alignment.

The tag's genie schedule and the receiver's demodulated windows are
matched by their absolute sample positions (the receiver's found offset
should land exactly on the tag's chip window; a mismatch beyond half a
symbol means the preamble search failed and the window counts as fully
errored — the honest accounting for a lost packet).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import metrics as obs_metrics


@dataclass
class LinkReport:
    """Outcome of one end-to-end run."""

    n_bits: int
    n_errors: int
    duration_seconds: float
    n_windows: int = 0
    n_lost_windows: int = 0
    #: Windows the receiver marked as erasures (sync loss detected via
    #: preamble-correlation collapse).  Excluded from ``n_bits`` — they
    #: feed link-layer retransmission, not the BER denominator.
    n_erased_windows: int = 0
    #: True when the tag never acquired sync (no comparator edges) and
    #: therefore never transmitted.
    sync_failed: bool = False
    sync_error_us: float = float("nan")
    lte_block_error_rate: float = float("nan")
    lte_throughput_bps: float = float("nan")
    extras: dict = field(default_factory=dict)

    @property
    def ber(self):
        if self.n_bits == 0:
            return float("nan")
        return self.n_errors / self.n_bits

    @property
    def throughput_bps(self):
        """Correctly demodulated backscatter bits per second (paper §4.2)."""
        if self.duration_seconds <= 0:
            return 0.0
        return (self.n_bits - self.n_errors) / self.duration_seconds


def align_windows(schedule_windows, demod_starts, tolerance):
    """Match genie chip windows to demodulated windows by position.

    Returns a list of (schedule_index, demod_index or None).  Only data
    windows are considered on the schedule side.

    The matching is one-to-one: each demodulated window can satisfy at
    most one schedule window.  (A per-window nearest-neighbour pick let a
    single demod window "satisfy" two schedule windows, masking a lost
    window — the BER then undercounted errors for the one that was never
    actually demodulated.)  Candidate pairs within tolerance are assigned
    greedily by ascending distance, ties broken by schedule then demod
    order, so the nearest available demod window wins.
    """
    demod_starts = np.asarray(demod_starts, dtype=np.int64)
    data_indices = [
        s_index
        for s_index, window in enumerate(schedule_windows)
        if window.kind == "data"
    ]
    matched = {s_index: None for s_index in data_indices}
    if len(demod_starts) > 0 and data_indices:
        candidates = []
        for s_index in data_indices:
            deltas = np.abs(demod_starts - schedule_windows[s_index].start)
            for d_index in np.flatnonzero(deltas <= tolerance):
                candidates.append((int(deltas[d_index]), s_index, int(d_index)))
        candidates.sort()
        used_demod = set()
        for _, s_index, d_index in candidates:
            if matched[s_index] is not None or d_index in used_demod:
                continue
            matched[s_index] = d_index
            used_demod.add(d_index)
    return [(s_index, matched[s_index]) for s_index in data_indices]


@dataclass
class BerBreakdown:
    """Erasure-aware bit accounting for one schedule/demod pair.

    ``n_bits``/``n_errors`` cover only windows the receiver *claimed* to
    demodulate; erasure-marked windows (sync loss detected) are excluded
    from both and counted in ``n_erased`` — they carry no garbage bits
    into the BER, and the link layer treats them as frames to retransmit.
    """

    n_bits: int = 0
    n_errors: int = 0
    n_windows: int = 0
    n_lost: int = 0
    n_erased: int = 0


def measure_link(schedule, demod_result, tolerance):
    """Erasure-aware window accounting; returns a :class:`BerBreakdown`.

    Unmatched (lost) windows count every bit as errored — the receiver
    emitted bits for them and got none right.  Windows the receiver
    explicitly flagged as erasures (``demod_result.window_erased``) are
    excluded from the bit counts entirely: declaring "I lost sync here"
    is honest signalling, not garbage delivery.
    """
    pairs = align_windows(schedule.windows, demod_result.starts, tolerance)
    erased_flags = getattr(demod_result, "window_erased", None)
    out = BerBreakdown(n_windows=len(pairs))
    for s_index, d_index in pairs:
        sent = schedule.windows[s_index].bits
        if d_index is not None and erased_flags and erased_flags[d_index]:
            out.n_erased += 1
            continue
        out.n_bits += len(sent)
        if d_index is None:
            out.n_errors += len(sent)
            out.n_lost += 1
            continue
        received = demod_result.window_bits[d_index]
        if len(received) != len(sent):
            out.n_errors += len(sent)
            out.n_lost += 1
            continue
        out.n_errors += int(np.sum(received != sent))
    obs_metrics.counter_inc("link.windows", out.n_windows)
    obs_metrics.counter_inc("link.bits", out.n_bits)
    if out.n_errors:
        obs_metrics.counter_inc("link.bit_errors", out.n_errors)
    if out.n_lost:
        obs_metrics.counter_inc("link.lost_windows", out.n_lost)
    if out.n_erased:
        obs_metrics.counter_inc("link.erased_windows", out.n_erased)
    return out
