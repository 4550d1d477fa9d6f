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
from repro.substrates.base import Substrate, _WindowSink
from repro.tag.controller import ChipWindow
from repro.tag.framing import IDLE_BIT, SLOTS_PER_HALF_FRAME

#: The CRS symbols of a half-frame as (slot, symbol) pairs, in time order.
CRS_PLAN = tuple(
    (slot, sym) for slot in range(SLOTS_PER_HALF_FRAME) for sym in CRS_SYMBOLS_IN_SLOT
)
#: The unmodulated SSS and PSS of slot 0, the receivers' channel sounding.
SOUNDING = ((0, SSS_SYMBOL_IN_SLOT), (0, PSS_SYMBOL_IN_SLOT))


class _CrsSubstrate(Substrate):
    """Shared CRS-symbol window layout for the OOK and FSK modes."""

    def _lay(self, chips, halves, payload_bits):
        """One payload bit per CRS symbol that fits in the capture."""
        params = self.params
        fft = params.fft_size
        windows = []
        consumed = 0
        for half_start, drift in halves:
            for slot, sym in CRS_PLAN:
                start = half_start + params.useful_start(slot, sym) + drift
                if start < 0 or start + fft > len(chips):
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
        return windows, consumed


class CrsOokSubstrate(_CrsSubstrate):
    """On-off keying of the CRS symbols against a PSS/SSS sounding."""

    name = "crs-ook"

    def _apply_bit(self, chips, start, bit):
        if bit == 0:
            chips[start : start + self.params.fft_size] = 0

    def demodulate(self, front):
        params = self.params
        fft = params.fft_size
        sink = _WindowSink()
        # The FFT bins carrying CRS pilots in each CRS symbol of a slot.
        bins_by_sym = {
            sym: params.subcarrier_indices()[
                crs_positions(sym, self.config.cell.cell_id, params.n_rb)
            ]
            for sym in CRS_SYMBOLS_IN_SLOT
        }
        ref_power = float(np.mean(np.abs(front.reference) ** 2))
        floor = 1e-9 * max(ref_power, 1e-30) * fft
        for half_start in front.half_starts:
            # Amplitude sounding on the unmodulated PSS/SSS reflection.
            num = 0.0
            den = 0.0
            n_sounded = 0
            for _sym, _start, y, x in self._symbols(front, half_start, SOUNDING):
                num += abs(np.vdot(x, y))
                den += float(np.vdot(x, x).real)
                n_sounded += 1
            sounding_ok = n_sounded == len(SOUNDING) and den >= floor
            amplitude = num / den if sounding_ok else 0.0
            for sym, start, y, x in self._symbols(front, half_start, CRS_PLAN):
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


class CrsFskSubstrate(_CrsSubstrate):
    """Binary FSK: the switch-toggle rate over a CRS symbol is the bit."""

    name = "crs-fsk"

    #: Half-periods of the ±1 switching waveform, in samples; the square
    #: wave's fundamental lands on FFT bin ``fft / (2 * half_period)``
    #: (integral for every supported FFT size, 128 and up).
    HALF_PERIOD_BIT0 = 4
    HALF_PERIOD_BIT1 = 8

    def _apply_bit(self, chips, start, bit):
        fft = self.params.fft_size
        half = self.HALF_PERIOD_BIT1 if bit == 1 else self.HALF_PERIOD_BIT0
        pattern = (np.arange(fft) // half) % 2
        chips[start : start + fft] = np.where(pattern == 0, 1, -1)

    def demodulate(self, front):
        fft = self.params.fft_size
        sink = _WindowSink()
        n = np.arange(fft)
        k0 = fft // (2 * self.HALF_PERIOD_BIT0)
        k1 = fft // (2 * self.HALF_PERIOD_BIT1)
        tone0 = np.exp(-2j * np.pi * k0 * n / fft)
        tone1 = np.exp(-2j * np.pi * k1 * n / fft)
        ref_power = float(np.mean(np.abs(front.reference) ** 2))
        abs_floor = 1e-9 * max(ref_power, 1e-30)
        for half_start in front.half_starts:
            for _sym, start, y, x in self._symbols(front, half_start, CRS_PLAN):
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
