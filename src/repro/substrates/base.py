"""Pluggable ambient-substrate modes (ROADMAP item 3).

A *substrate* is one way of riding an ambient LTE signal: which symbols
the tag modulates, how bits map onto its RF-switch waveform, and how the
receiver turns the shifted-band capture back into bits.  The paper's
chip scheme (:mod:`repro.substrates.chip`) is the default; its siblings
— OOK and FSK on the cell-specific reference signals (arXiv 2209.01108,
2301.13664), convolutional-coded backscatter on LTE pilots (arXiv
2402.12657) and uplink-SRS backscatter (arXiv 2501.10952) — plug in
beside it through the same four hooks:

* :meth:`Substrate.prepare_ambient` — what the ambient capture *is*
  (downlink LTE frames by default; the SRS mode substitutes an uplink
  sounding capture);
* :meth:`Substrate.build_schedule` — the tag-side modulation schedule
  (a :class:`~repro.tag.controller.ChipSchedule`, so the RF switch and
  the MAC/fault machinery are shared across modes), laid by
  :func:`~repro.tag.controller.lay_schedule` with the mode's ``_lay``;
* :meth:`Substrate.demodulate` — the receiver, which reads its symbols
  through :meth:`Substrate._symbols`;
* :meth:`Substrate.measure` — schedule-vs-demod accounting (coded modes
  replace raw chip counting with decode-then-compare).

:data:`repro.substrates.SUBSTRATES` maps each mode's name to its class;
:class:`~repro.core.config.SystemConfig` carries that name and
:class:`~repro.core.system.LScatterSystem` dispatches through it.  The
default ``"chip"`` mode delegates to the exact pre-refactor code paths,
so a config that never mentions substrates stays bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.bsrx.demodulator import BsDemodResult
from repro.core.metrics import measure_link
from repro.tag.controller import lay_schedule


class _WindowSink:
    """Accumulates per-window demod output into a :class:`BsDemodResult`."""

    def __init__(self):
        self.window_bits = []
        self.window_soft = []
        self.window_erased = []
        self.starts = []

    def add(self, bits, soft, start, erased):
        self.window_bits.append(np.asarray(bits, dtype=np.int8))
        self.window_soft.append(np.asarray(soft, dtype=float))
        self.window_erased.append(bool(erased))
        self.starts.append(int(start))

    def result(self):
        return BsDemodResult.from_windows(
            self.window_bits, self.window_soft, self.starts, self.window_erased
        )


class Substrate:
    """One pluggable tag-modulation / receiver mode.

    Subclasses set ``name`` and implement ``_lay`` (see
    :func:`~repro.tag.controller.lay_schedule`) and :meth:`demodulate`;
    everything else has a default.  Instances are cheap, stateless views
    bound to one :class:`~repro.core.system.LScatterSystem`.
    """

    #: Table name (``repro --substrate <name>``).
    name = ""
    #: Ambient-capture family; modes sharing a kind share cache entries.
    ambient_kind = "lte-downlink"
    #: Whether the UE-decode reference reconstruction path applies.
    supports_decoded_reference = True
    #: Whether the analog PSS envelope sync circuit applies.
    supports_circuit_sync = True

    def __init__(self, system):
        self.system = system
        self.config = system.config
        self.params = system.params

    def prepare_ambient(self, rng=None):
        """Produce the ambient stage this mode rides (default: downlink)."""
        return self.system.transmit_downlink_ambient(rng=rng)

    def build_schedule(
        self,
        timing,
        n_samples,
        payload_bits,
        owned_half_frames=None,
        drift_per_half_frame=0.0,
    ):
        """The tag's schedule, as
        :meth:`~repro.tag.controller.TagController.build_schedule`."""
        return lay_schedule(
            timing,
            n_samples,
            self.params.samples_per_frame // 2,
            payload_bits,
            self._lay,
            owned_half_frames,
            drift_per_half_frame,
        )

    def demodulate(self, front):
        raise NotImplementedError

    def _symbols(self, front, half_start, pairs):
        """Yield ``(symbol, start, y, x)`` for each ``(slot, symbol)`` of
        ``pairs`` in the half-frame at ``half_start`` whose useful part
        (no CP) fits in the capture: its start sample and that part of the
        shifted band and of the sample-aligned reference."""
        fft = self.params.fft_size
        for slot, sym in pairs:
            start = int(half_start) + self.params.useful_start(slot, sym)
            if start + fft > len(front.shifted_rx):
                continue
            stop = start + fft
            yield sym, start, front.shifted_rx[start:stop], front.reference[start:stop]

    def measure(self, schedule, demod, tolerance):
        """Schedule-vs-demod accounting; default is raw chip counting."""
        return measure_link(schedule, demod, tolerance)
