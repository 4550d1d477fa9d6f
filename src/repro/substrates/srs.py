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
from repro.substrates.base import (
    Substrate,
    _WindowSink,
    iter_half_frames,
    register,
)
from repro.tag.controller import ChipSchedule, ChipWindow
from repro.tag.framing import IDLE_BIT

#: Slots (within a half-frame) whose last symbol carries the SRS — the
#: final SC-FDMA symbol of each 1 ms subframe.
SRS_SLOTS = (1, 3, 5, 7, 9)
SRS_SYMBOL_IN_SLOT = 6


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


@register
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

    def _occasions(self, half_start, drift=0):
        """(mod_start, mod_length, window_start) per SRS occasion."""
        params = self.params
        fft = params.fft_size
        out = []
        for slot in SRS_SLOTS:
            sym_start = params.symbol_start(slot, SRS_SYMBOL_IN_SLOT)
            u_start = params.useful_start(slot, SRS_SYMBOL_IN_SLOT)
            length = (u_start - sym_start) + fft
            out.append(
                (
                    half_start + sym_start + drift,
                    length,
                    half_start + u_start + drift,
                )
            )
        return out

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
        windows = []
        half = params.samples_per_frame // 2
        consumed = 0
        n_half_frames = 0
        for _index, half_start, drift in iter_half_frames(
            timing, n_samples, half, owned_half_frames, drift_per_half_frame
        ):
            n_half_frames += 1
            occasions = self._occasions(half_start, drift)
            # Differential chain: if any occasion clips the capture edge
            # the chain has no anchor, so the half-frame stays silent.
            if any(
                start < 0 or start + length > n_samples
                for start, length, _ in occasions
            ):
                continue
            sign = 1
            for k, (start, length, window_start) in enumerate(occasions):
                if k == 0:
                    windows.append(
                        ChipWindow(
                            start=int(window_start),
                            n_chips=1,
                            kind="preamble",
                            bits=np.array([1], dtype=np.int8),
                        )
                    )
                    continue
                if consumed < len(payload_bits):
                    bit = int(payload_bits[consumed])
                    consumed += 1
                else:
                    bit = IDLE_BIT
                if bit == 0:
                    sign = -sign
                chips[start : start + length] = sign
                windows.append(
                    ChipWindow(
                        start=int(window_start),
                        n_chips=1,
                        kind="data",
                        bits=np.array([bit], dtype=np.int8),
                    )
                )
        return ChipSchedule(
            chips=chips,
            windows=windows,
            payload_bits=payload_bits[:consumed].copy(),
            n_half_frames=n_half_frames,
        )

    def demodulate(self, front):
        params = self.params
        fft = params.fft_size
        shifted = front.shifted_rx
        reference = front.reference
        limit = len(shifted)
        sink = _WindowSink()
        ref_power = float(np.mean(np.abs(reference) ** 2))
        floor = 1e-9 * max(ref_power, 1e-30) * fft
        for half_start in front.half_starts:
            half_start = int(half_start)
            occasions = self._occasions(half_start)
            rhos = []
            starts = []
            for _mod_start, _length, window_start in occasions:
                if window_start < 0 or window_start + fft > limit:
                    rhos.append(None)
                    starts.append(window_start)
                    continue
                y = shifted[window_start : window_start + fft]
                x = reference[window_start : window_start + fft]
                den = float(np.vdot(x, x).real)
                rhos.append(np.vdot(x, y) / max(den, floor))
                starts.append(window_start)
            for k in range(1, len(occasions)):
                if rhos[k] is None or rhos[k - 1] is None:
                    continue
                product = rhos[k] * np.conj(rhos[k - 1])
                magnitude = abs(rhos[k]) * abs(rhos[k - 1])
                soft = product.real / max(magnitude, 1e-30)
                sink.add([1 if soft > 0 else 0], [soft], starts[k], False)
        return sink.result()
