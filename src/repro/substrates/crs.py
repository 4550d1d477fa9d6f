"""CRS-based ambient backscatter: OOK and FSK on the reference signals.

The cell-specific reference signals (CRS) occupy symbols 0 and 4 of
every slot and are always transmitted, whatever the traffic load — the
one piece of a downlink LTE signal a tag can rely on in an idle cell
(arXiv 2209.01108).  Both modes here modulate exactly those twenty
symbols per half-frame, one payload bit per CRS symbol:

* ``crs-ook`` — bit 1 reflects the symbol, bit 0 absorbs it (RF switch
  open: chips 0).  The receiver correlates each CRS symbol's pilot bins
  against the reference and compares the correlation amplitude to the
  unmodulated PSS/SSS sounding of the same half-frame.
* ``crs-fsk`` — the tag toggles its switch at one of two sub-symbol
  rates over the CRS symbol, displacing the backscattered pilots by
  ``fft/16`` or ``fft/8`` bins (arXiv 2301.13664); the receiver decides
  noncoherently between the two tone bins of the per-sample product
  ``y_n x_n*``, so it needs no amplitude reference at all.

Both leave the PSS/SSS untouched (chips +1), so envelope sync and the
OOK amplitude sounding keep working, and both ride the same downlink
ambient capture (and ambient cache entries) as the chip scheme.
"""

from __future__ import annotations

import numpy as np

from repro.lte.crs import CRS_SYMBOLS_IN_SLOT, crs_positions
from repro.lte.pss import PSS_SYMBOL_IN_SLOT
from repro.lte.sss import SSS_SYMBOL_IN_SLOT
from repro.substrates.base import (
    Substrate,
    _WindowSink,
    iter_half_frames,
    register,
)
from repro.tag.controller import ChipSchedule, ChipWindow
from repro.tag.framing import IDLE_BIT, SLOTS_PER_HALF_FRAME


class _CrsSubstrate(Substrate):
    """Shared CRS-symbol window layout for the OOK and FSK modes."""

    supports_decoded_reference = True
    supports_circuit_sync = True

    def _crs_symbols(self):
        """(slot, symbol) pairs modulated per half-frame, in time order."""
        return [
            (slot, sym)
            for slot in range(SLOTS_PER_HALF_FRAME)
            for sym in CRS_SYMBOLS_IN_SLOT
        ]

    def _apply_bit(self, chips, start, bit):
        raise NotImplementedError

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
        fft = params.fft_size
        half = params.samples_per_frame // 2
        plan = self._crs_symbols()
        consumed = 0
        n_half_frames = 0
        for _index, half_start, drift in iter_half_frames(
            timing, n_samples, half, owned_half_frames, drift_per_half_frame
        ):
            n_half_frames += 1
            for slot, sym in plan:
                start = half_start + params.useful_start(slot, sym) + drift
                if start < 0 or start + fft > n_samples:
                    continue
                if consumed < len(payload_bits):
                    bit = int(payload_bits[consumed])
                    consumed += 1
                else:
                    bit = IDLE_BIT
                self._apply_bit(chips, start, bit)
                windows.append(
                    ChipWindow(
                        start=int(start),
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

    # -- receiver helpers ------------------------------------------------------

    def _pilot_bins(self, sym):
        """FFT bins carrying CRS pilots in symbol ``sym`` of any slot."""
        params = self.params
        positions = crs_positions(
            sym, self.config.cell.cell_id, params.n_rb
        )
        return params.subcarrier_indices()[positions]


@register
class CrsOokSubstrate(_CrsSubstrate):
    """On-off keying of the CRS symbols against a PSS/SSS sounding."""

    name = "crs-ook"

    def _apply_bit(self, chips, start, bit):
        if bit == 0:
            chips[start : start + self.params.fft_size] = 0

    def demodulate(self, front):
        params = self.params
        fft = params.fft_size
        shifted = front.shifted_rx
        reference = front.reference
        limit = len(shifted)
        sink = _WindowSink()
        plan = self._crs_symbols()
        bins_by_sym = {sym: self._pilot_bins(sym) for sym in CRS_SYMBOLS_IN_SLOT}
        ref_power = float(np.mean(np.abs(reference) ** 2))
        floor = 1e-9 * max(ref_power, 1e-30) * fft
        for half_start in front.half_starts:
            half_start = int(half_start)
            # Amplitude sounding on the unmodulated PSS/SSS reflection.
            num = 0.0
            den = 0.0
            sounding_ok = True
            for sym in (SSS_SYMBOL_IN_SLOT, PSS_SYMBOL_IN_SLOT):
                y, _ = self._useful(shifted, half_start, 0, sym)
                x, _ = self._useful(reference, half_start, 0, sym)
                if len(y) < fft or len(x) < fft:
                    sounding_ok = False
                    break
                num += abs(np.vdot(x, y))
                den += float(np.vdot(x, x).real)
            if den < floor:
                sounding_ok = False
            amplitude = num / den if sounding_ok else 0.0
            for slot, sym in plan:
                y, start = self._useful(shifted, half_start, slot, sym)
                x, _ = self._useful(reference, half_start, slot, sym)
                if len(y) < fft or len(x) < fft or start + fft > limit:
                    continue
                if not sounding_ok:
                    sink.add([IDLE_BIT], [0.0], start, True)
                    continue
                bins = bins_by_sym[sym]
                yf = np.fft.fft(y)[bins]
                xf = np.fft.fft(x)[bins]
                den_w = float(np.sum(np.abs(xf) ** 2))
                if den_w < floor / fft:
                    # The reference pilots vanished under this window
                    # (ambient dropout): no decision is honest.
                    sink.add([IDLE_BIT], [0.0], start, True)
                    continue
                rho = abs(np.sum(yf * np.conj(xf))) / den_w
                soft = rho - 0.5 * amplitude
                sink.add([1 if soft > 0 else 0], [soft], start, False)
        return sink.result()


@register
class CrsFskSubstrate(_CrsSubstrate):
    """Binary FSK: the switch-toggle rate over a CRS symbol is the bit."""

    name = "crs-fsk"

    #: Half-periods of the ±1 switching waveform, in samples; the square
    #: wave's fundamental lands on FFT bin ``fft / (2 * half_period)``
    #: (integral for every supported FFT size, 128 and up).
    HALF_PERIOD_BIT0 = 4
    HALF_PERIOD_BIT1 = 8

    def _wave(self, bit, length):
        half = self.HALF_PERIOD_BIT1 if bit == 1 else self.HALF_PERIOD_BIT0
        pattern = (np.arange(int(length)) // half) % 2
        return np.where(pattern == 0, 1, -1).astype(np.int8)

    def _apply_bit(self, chips, start, bit):
        fft = self.params.fft_size
        chips[start : start + fft] = self._wave(bit, fft)

    def demodulate(self, front):
        params = self.params
        fft = params.fft_size
        shifted = front.shifted_rx
        reference = front.reference
        limit = len(shifted)
        sink = _WindowSink()
        plan = self._crs_symbols()
        n = np.arange(fft)
        k0 = fft // (2 * self.HALF_PERIOD_BIT0)
        k1 = fft // (2 * self.HALF_PERIOD_BIT1)
        tone0 = np.exp(-2j * np.pi * k0 * n / fft)
        tone1 = np.exp(-2j * np.pi * k1 * n / fft)
        ref_power = float(np.mean(np.abs(reference) ** 2))
        abs_floor = 1e-9 * max(ref_power, 1e-30)
        for half_start in front.half_starts:
            half_start = int(half_start)
            for slot, sym in plan:
                y, start = self._useful(shifted, half_start, slot, sym)
                x, _ = self._useful(reference, half_start, slot, sym)
                if len(y) < fft or len(x) < fft or start + fft > limit:
                    continue
                power = np.abs(x) ** 2
                mean_power = float(np.mean(power))
                if mean_power < abs_floor:
                    sink.add([IDLE_BIT], [0.0], start, True)
                    continue
                # z_n ~ gain * c_n + noise/x_n; the floor keeps near-null
                # ambient samples from amplifying noise.
                z = y * np.conj(x) / np.maximum(power, 0.1 * mean_power)
                m0 = abs(np.dot(z, tone0))
                m1 = abs(np.dot(z, tone1))
                soft = (m1 - m0) / (m1 + m0 + 1e-30)
                sink.add([1 if soft > 0 else 0], [soft], start, False)
        return sink.result()
