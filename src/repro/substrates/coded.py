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

import numpy as np

from repro.bsrx.equalizer import estimate_channel_from_known
from repro.bsrx.mod_offset import find_modulation_offset
from repro.core.metrics import BerBreakdown, align_windows
from repro.lte import coding
from repro.substrates.base import Substrate, _WindowSink
from repro.substrates.crs import CRS_PLAN, SOUNDING
from repro.tag.controller import ChipWindow
from repro.tag.framing import IDLE_BIT, preamble_bits

#: Shortest payload the tail-biting encoder accepts (constraint length 7).
MIN_INFO_BITS = 8

#: Preamble mis-slice fraction above which a half-frame's data windows
#: are erasures (sync lost for this half-frame), mirroring the chip
#: receiver's escalation but always on — the decoder wants clean zero
#: LLRs there, not confidently wrong ones.
PREAMBLE_ERASURE_FRACTION = 0.45


class CodedPilotSubstrate(Substrate):
    """Rate-1/3 coded chips on CRS symbols only."""

    name = "coded-pilot"

    def __init__(self, system):
        super().__init__(system)
        self.n_chips = self.params.n_subcarriers
        self.chip_offset = (self.params.fft_size - self.n_chips) // 2
        self._preamble = preamble_bits(self.n_chips)

    def _lay(self, chips, halves, payload_bits):
        """The first CRS symbol of each half-frame is the preamble; the
        code stream fills the rest, sized to the windows the capture holds.
        """
        params = self.params
        # First pass: where every window would land, clipping included,
        # so the code stream's length matches the capacity actually laid.
        spans = []
        for half_start, drift in halves:
            for position, (slot, sym) in enumerate(CRS_PLAN):
                start = (
                    half_start
                    + params.useful_start(slot, sym)
                    + self.chip_offset
                    + drift
                )
                if start < 0 or start + self.n_chips > len(chips):
                    continue
                spans.append((int(start), position == 0))
        n_data_windows = sum(1 for _, is_preamble in spans if not is_preamble)
        capacity = n_data_windows * self.n_chips
        n_info = min(len(payload_bits), capacity // 3)
        if n_info < MIN_INFO_BITS:
            n_info = 0
        coded = (
            coding.conv_encode(payload_bits[:n_info])
            if n_info
            else np.zeros(0, np.int8)
        )

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
        return windows, n_info

    # -- receiver --------------------------------------------------------------

    def demodulate(self, front):
        sink = _WindowSink()
        for half_start in front.half_starts:
            # Cascade sounding on the unmodulated PSS/SSS reflection.
            estimates = [
                estimate_channel_from_known(y, x)
                for _sym, _start, y, x in self._symbols(front, half_start, SOUNDING)
            ]
            if len(estimates) < len(SOUNDING):
                continue
            cascade = np.mean(estimates, axis=0)

            # The preamble symbol precedes the sounding, so it fits too.
            (_, _, y0, x0), *data = self._symbols(front, half_start, CRS_PLAN)
            # Preamble: offset + gain against the pre-distorted reference.
            w0 = np.fft.ifft(np.fft.fft(x0) * cascade)
            estimate = find_modulation_offset(
                y0, w0, self._preamble, self.chip_offset, self.chip_offset
            )
            offset = estimate.offset
            derotate = np.conj(estimate.gain)
            lo, hi = offset, offset + self.n_chips
            pre_soft = np.real(derotate * y0[lo:hi] * np.conj(w0[lo:hi]))
            pre_errors = int(np.sum((pre_soft > 0).astype(np.int8) != self._preamble))
            erased = pre_errors > PREAMBLE_ERASURE_FRACTION * self.n_chips

            # The offset keeps each window inside its symbol's useful part.
            for _sym, sym_start, y, x in data:
                if erased:
                    sink.add(
                        np.zeros(self.n_chips, np.int8),
                        np.zeros(self.n_chips),
                        sym_start + offset,
                        True,
                    )
                    continue
                w = np.fft.ifft(np.fft.fft(x) * cascade)
                soft = np.real(derotate * y[lo:hi] * np.conj(w[lo:hi]))
                bits = (soft > 0).astype(np.int8)
                sink.add(bits, soft, sym_start + offset, False)
        return sink.result()

    # -- accounting ------------------------------------------------------------

    def measure(self, schedule, demod, tolerance):
        """Decode the LLR stream and count *information*-bit errors.

        Window bookkeeping (lost/erased) keeps the usual meaning; lost
        and erased windows become zero LLRs rather than counted errors —
        the decode outcome is the honest damage report for a coded link.
        """
        pairs = align_windows(schedule.windows, demod.starts, tolerance)
        info = schedule.payload_bits
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
