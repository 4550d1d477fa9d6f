"""Uplink-SRS ambient backscatter: a new uplink ambient stage.

Where the other substrates ride the eNodeB's downlink, this mode rides
the *UE's* uplink sounding reference signals (arXiv 2501.10952): once
per subframe the UE transmits an SRS — a comb-2 Zadoff-Chu sequence on
the last SC-FDMA symbol — and is otherwise silent here (the worst-case
ambient: nothing but sounding).  The tag phase-modulates whole SRS
symbols, differentially (DBPSK) across the five SRS occasions of each
half-frame: the first occasion is the phase reference, the remaining
four carry one bit each.

The receiver correlates each SRS occasion against the known transmitted
sequence and decides each bit from the sign of ``Re(rho_k *
conj(rho_{k-1}))`` — no absolute carrier phase and no channel sounding
needed, which is what makes a five-pulse-per-5ms ambient workable.

Because the ambient is not a decodable downlink signal, this mode
requires ``reference_mode="genie"`` and the model/pinned sync modes (the
envelope sync circuit looks for the boosted PSS/SSS region, which an
uplink capture does not have); :class:`~repro.core.system.
LScatterSystem` enforces both at construction.  Ambient-cache entries
key under ``ambient_kind="srs-uplink"`` so uplink captures never collide
with downlink ones.
"""

from __future__ import annotations

import numpy as np

from repro.lte.params import SUBFRAMES_PER_FRAME
from repro.lte.transmitter import LteCapture
from repro.lte.zadoff_chu import zadoff_chu
from repro.substrates.base import Substrate, _WindowSink
from repro.tag.controller import ChipWindow
from repro.tag.framing import IDLE_BIT

#: Slots (within a half-frame) whose last symbol carries the SRS — the
#: final SC-FDMA symbol of each 1 ms subframe.
SRS_SLOTS = (1, 3, 5, 7, 9)
SRS_SYMBOL_IN_SLOT = 6
#: The SRS occasions of a half-frame as (slot, symbol) pairs, in time order.
SRS_PLAN = tuple((slot, SRS_SYMBOL_IN_SLOT) for slot in SRS_SLOTS)


def srs_sequence(params):
    """The comb-2 Zadoff-Chu SRS and the FFT bins it occupies.

    Every second data subcarrier carries one sequence element (comb-2,
    36.211 §5.5.3); the sequence length is the largest odd bin count
    that fits, and ``root = length - 1`` is always coprime with it.
    """
    comb = params.subcarrier_indices()[::2]
    length = len(comb) if len(comb) % 2 == 1 else len(comb) - 1
    root = length - 1
    return zadoff_chu(root, length), comb[:length]


def build_srs_capture(params, cell, n_frames):
    """Synthesize an uplink capture: SRS once per subframe, else silence."""
    fft = params.fft_size
    sequence, bins = srs_sequence(params)
    spectrum = np.zeros(fft, dtype=complex)
    spectrum[bins] = sequence
    useful = np.fft.ifft(spectrum) * np.sqrt(fft)
    frame = np.zeros(params.samples_per_frame, dtype=complex)
    for subframe in range(SUBFRAMES_PER_FRAME):
        slot = 2 * subframe + 1
        sym_start = params.symbol_start(slot, SRS_SYMBOL_IN_SLOT)
        u_start = params.useful_start(slot, SRS_SYMBOL_IN_SLOT)
        frame[u_start : u_start + fft] = useful
        frame[sym_start:u_start] = useful[-(u_start - sym_start) :]
    samples = np.tile(frame, int(n_frames))
    return LteCapture(params=params, cell=cell, samples=samples, frames=[])


class SrsUplinkSubstrate(Substrate):
    """DBPSK across the SRS occasions of each half-frame."""

    name = "srs-uplink"
    ambient_kind = "srs-uplink"
    supports_decoded_reference = False
    supports_circuit_sync = False

    def prepare_ambient(self, rng=None):
        # The SRS is a fixed sounding sequence: deterministic, so the
        # transmitter stream (rng) is deliberately unused — spawning
        # order for the other five streams is unchanged either way.
        from repro.core.system import AmbientStage

        return AmbientStage.from_capture(
            build_srs_capture(self.params, self.config.cell, self.config.n_frames)
        )

    def _lay(self, chips, halves, payload_bits):
        """The first occasion of a half-frame is the phase reference; each
        later one flips the switch's sign for a 0 bit, CP included."""
        params = self.params
        windows = []
        consumed = 0
        for half_start, drift in halves:
            # (mod_start, mod_stop, window_start) per SRS occasion.
            occasions = []
            for slot, sym in SRS_PLAN:
                useful = half_start + params.useful_start(slot, sym) + drift
                start = half_start + params.symbol_start(slot, sym) + drift
                occasions.append((start, useful + params.fft_size, useful))
            # Differential chain: if any occasion clips the capture edge
            # the chain has no anchor, so the half-frame stays silent.
            if any(start < 0 or stop > len(chips) for start, stop, _ in occasions):
                continue
            windows.append(
                ChipWindow(
                    start=int(occasions[0][2]),
                    n_chips=1,
                    kind="preamble",
                    bits=np.array([1], dtype=np.int8),
                )
            )
            sign = 1
            for start, stop, window_start in occasions[1:]:
                if consumed < len(payload_bits):
                    bit = int(payload_bits[consumed])
                    consumed += 1
                else:
                    bit = IDLE_BIT
                if bit == 0:
                    sign = -sign
                chips[start:stop] = sign
                windows.append(
                    ChipWindow(
                        start=int(window_start),
                        n_chips=1,
                        kind="data",
                        bits=np.array([bit], dtype=np.int8),
                    )
                )
        return windows, consumed

    def demodulate(self, front):
        sink = _WindowSink()
        ref_power = float(np.mean(np.abs(front.reference) ** 2))
        floor = 1e-9 * max(ref_power, 1e-30) * self.params.fft_size
        for half_start in front.half_starts:
            # The occasions inside the capture are a prefix of SRS_PLAN, so
            # consecutive entries are consecutive occasions.
            rhos = []
            for _sym, start, y, x in self._symbols(front, half_start, SRS_PLAN):
                den = float(np.vdot(x, x).real)
                rhos.append((start, np.vdot(x, y) / max(den, floor)))
            for (_, previous), (start, rho) in zip(rhos, rhos[1:]):
                product = rho * np.conj(previous)
                magnitude = abs(rho) * abs(previous)
                soft = product.real / max(magnitude, 1e-30)
                sink.add([1 if soft > 0 else 0], [soft], start, False)
        return sink.result()
