"""Convolutional-coded backscatter on the LTE pilot symbols.

The Aalto line of work (arXiv 2402.12657) codes the backscatter stream
so that pilot-symbol-only modulation — far fewer modulated symbols than
the chip scheme — still delivers a usable link at range.  Here the tag
modulates chip windows only on the CRS-bearing symbols (0 and 4 of each
slot): the first CRS symbol of each half-frame carries the shared PN
preamble, the other nineteen carry the rate-1/3 tail-biting
convolutional code stream (:mod:`repro.lte.coding`) over the payload.

The receiver reuses the chip receiver's machinery — PSS/SSS cascade
sounding, preamble offset search against a pre-distorted reference —
then hands per-chip matched-filter soft values to the Viterbi decoder as
LLRs.  Lost or erased windows contribute zero LLRs (true erasures), so
the code, not the window accounting, decides how much damage a faded
packet does.  ``measure`` therefore compares *decoded information bits*:
``n_bits`` in this mode's reports counts info bits, not raw chips.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bsrx.equalizer import estimate_channel_from_known
from repro.bsrx.mod_offset import find_modulation_offset
from repro.core.metrics import BerBreakdown, align_windows
from repro.lte import coding
from repro.lte.crs import CRS_SYMBOLS_IN_SLOT
from repro.lte.pss import PSS_SYMBOL_IN_SLOT
from repro.lte.sss import SSS_SYMBOL_IN_SLOT
from repro.substrates.base import (
    Substrate,
    _WindowSink,
    iter_half_frames,
    register,
)
from repro.tag.controller import ChipSchedule, ChipWindow
from repro.tag.framing import IDLE_BIT, SLOTS_PER_HALF_FRAME, preamble_bits

#: Shortest payload the tail-biting encoder accepts (constraint length 7).
MIN_INFO_BITS = 8

#: Preamble mis-slice fraction above which a half-frame's data windows
#: are erasures (sync lost for this half-frame), mirroring the chip
#: receiver's escalation but always on — the decoder wants clean zero
#: LLRs there, not confidently wrong ones.
PREAMBLE_ERASURE_FRACTION = 0.45


@dataclass
class CodedSchedule(ChipSchedule):
    """Chip schedule plus the information bits the code stream carries."""

    info_bits: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int8))


@register
class CodedPilotSubstrate(Substrate):
    """Rate-1/3 coded chips on CRS symbols only."""

    name = "coded-pilot"
    ambient_kind = "lte-downlink"
    supports_decoded_reference = True
    supports_circuit_sync = True

    def __init__(self, system):
        super().__init__(system)
        self.n_chips = self.params.n_subcarriers
        self.chip_offset = (self.params.fft_size - self.n_chips) // 2
        self._preamble = preamble_bits(self.n_chips)

    def _symbol_plan(self):
        """CRS symbols per half-frame; the first is the preamble."""
        return [
            (slot, sym)
            for slot in range(SLOTS_PER_HALF_FRAME)
            for sym in CRS_SYMBOLS_IN_SLOT
        ]

    def build_schedule(
        self,
        timing,
        n_samples,
        payload_bits,
        owned_half_frames=None,
        drift_per_half_frame=0.0,
    ):
        params = self.params
        payload_bits = np.asarray(payload_bits, dtype=np.int8)
        chips = np.ones(int(n_samples), dtype=np.int8)
        half = params.samples_per_frame // 2
        plan = self._symbol_plan()

        # First pass: where every window would land, clipping included,
        # so the code stream's length matches the capacity actually laid.
        spans = []
        n_half_frames = 0
        for _index, half_start, drift in iter_half_frames(
            timing, n_samples, half, owned_half_frames, drift_per_half_frame
        ):
            n_half_frames += 1
            for position, (slot, sym) in enumerate(plan):
                start = (
                    half_start
                    + params.useful_start(slot, sym)
                    + self.chip_offset
                    + drift
                )
                if start < 0 or start + self.n_chips > n_samples:
                    continue
                spans.append((int(start), position == 0))
        n_data_windows = sum(1 for _, is_preamble in spans if not is_preamble)
        capacity = n_data_windows * self.n_chips
        n_info = min(len(payload_bits), capacity // 3)
        if n_info < MIN_INFO_BITS:
            n_info = 0
        info_bits = payload_bits[:n_info].copy()
        coded = coding.conv_encode(info_bits) if n_info else np.zeros(0, np.int8)

        windows = []
        laid = 0
        for start, is_preamble in spans:
            if is_preamble:
                bits = self._preamble
                kind = "preamble"
            else:
                if laid >= len(coded):
                    continue  # idle window: chips stay +1, no bookkeeping
                chunk = coded[laid : laid + self.n_chips]
                laid += len(chunk)
                bits = np.full(self.n_chips, IDLE_BIT, dtype=np.int8)
                bits[: len(chunk)] = chunk
                kind = "data"
            chips[start : start + self.n_chips] = 2 * bits - 1
            windows.append(
                ChipWindow(
                    start=int(start),
                    n_chips=self.n_chips,
                    kind=kind,
                    bits=bits.copy(),
                )
            )
        return CodedSchedule(
            chips=chips,
            windows=windows,
            payload_bits=info_bits,
            n_half_frames=n_half_frames,
            info_bits=info_bits,
        )

    # -- receiver --------------------------------------------------------------

    def demodulate(self, front):
        params = self.params
        fft = params.fft_size
        shifted = front.shifted_rx
        reference = front.reference
        limit = len(shifted)
        sink = _WindowSink()
        plan = self._symbol_plan()
        search_slack = self.chip_offset
        for half_start in front.half_starts:
            half_start = int(half_start)
            # Cascade sounding on the unmodulated PSS/SSS reflection.
            estimates = []
            for sym in (SSS_SYMBOL_IN_SLOT, PSS_SYMBOL_IN_SLOT):
                y, _ = self._useful(shifted, half_start, 0, sym)
                x, _ = self._useful(reference, half_start, 0, sym)
                if len(y) < fft or len(x) < fft:
                    break
                estimates.append(estimate_channel_from_known(y, x))
            if len(estimates) < 2:
                continue
            cascade = np.mean(estimates, axis=0)

            # Preamble: offset + gain against the pre-distorted reference.
            y0, _ = self._useful(shifted, half_start, *plan[0])
            x0, _ = self._useful(reference, half_start, *plan[0])
            if len(y0) < fft or len(x0) < fft:
                continue
            w0 = np.fft.ifft(np.fft.fft(x0) * cascade)
            estimate = find_modulation_offset(
                y0, w0, self._preamble, self.chip_offset, search_slack
            )
            offset = estimate.offset
            derotate = np.conj(estimate.gain)
            lo, hi = offset, offset + self.n_chips
            pre_soft = np.real(derotate * y0[lo:hi] * np.conj(w0[lo:hi]))
            pre_errors = int(np.sum((pre_soft > 0).astype(np.int8) != self._preamble))
            erased = pre_errors > PREAMBLE_ERASURE_FRACTION * self.n_chips

            for slot, sym in plan[1:]:
                y, sym_start = self._useful(shifted, half_start, slot, sym)
                x, _ = self._useful(reference, half_start, slot, sym)
                window_start = sym_start + offset
                if len(y) < fft or len(x) < fft or window_start + self.n_chips > limit:
                    continue
                if erased:
                    sink.add(
                        np.zeros(self.n_chips, np.int8),
                        np.zeros(self.n_chips),
                        window_start,
                        True,
                    )
                    continue
                w = np.fft.ifft(np.fft.fft(x) * cascade)
                soft = np.real(derotate * y[lo:hi] * np.conj(w[lo:hi]))
                bits = (soft > 0).astype(np.int8)
                sink.add(bits, soft, window_start, False)
        return sink.result()

    # -- accounting ------------------------------------------------------------

    def measure(self, schedule, demod, tolerance):
        """Decode the LLR stream and count *information*-bit errors.

        Window bookkeeping (lost/erased) keeps the usual meaning; lost
        and erased windows become zero LLRs rather than counted errors —
        the decode outcome is the honest damage report for a coded link.
        """
        pairs = align_windows(schedule.windows, demod.starts, tolerance)
        info = np.asarray(getattr(schedule, "info_bits", []), dtype=np.int8)
        n_info = len(info)
        out = BerBreakdown(n_windows=len(pairs))
        llrs = np.zeros(3 * n_info)
        # Every window this mode demodulates holds n_chips soft values.
        window_soft = demod.soft.reshape(-1, self.n_chips)
        for j, (s_index, d_index) in enumerate(pairs):
            lo = j * self.n_chips
            n_positions = max(0, min(self.n_chips, 3 * n_info - lo))
            if d_index is None:
                out.n_lost += 1
                continue
            if demod.window_erased and demod.window_erased[d_index]:
                out.n_erased += 1
                continue
            if n_positions == 0:
                continue
            # Matched-filter soft > 0 means coded bit 1; the decoder wants
            # positive LLRs for coded bit 0.
            llrs[lo : lo + n_positions] = -window_soft[d_index, :n_positions]
        if n_info:
            # Through the package attribute, as LteReceiver.decode calls it,
            # so a wrapper there (perfbench's lte.viterbi ledger) sees it.
            decoded = coding.viterbi_decode_many([llrs], [n_info])[0]
            out.n_bits = n_info
            out.n_errors = int(np.sum(decoded != info))
        return out
