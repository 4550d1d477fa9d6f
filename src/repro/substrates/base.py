"""Pluggable ambient-substrate modes (ROADMAP item 3).

A *substrate* is one way of riding an ambient LTE signal: which symbols
the tag modulates, how bits map onto its RF-switch waveform, and how the
receiver turns the shifted-band capture back into bits.  The paper's
chip scheme (:mod:`repro.substrates.chip`) is the default; its siblings
— OOK and FSK on the cell-specific reference signals (arXiv 2209.01108,
2301.13664), convolutional-coded backscatter on LTE pilots (arXiv
2402.12657) and uplink-SRS backscatter (arXiv 2501.10952) — plug in
beside it through the same five hooks:

* :meth:`Substrate.prepare_ambient` — what the ambient capture *is*
  (downlink LTE frames by default; the SRS mode substitutes an uplink
  sounding capture);
* :meth:`Substrate.build_schedule` — the tag-side modulation schedule
  (a :class:`~repro.tag.controller.ChipSchedule`, so the RF switch and
  the MAC/fault machinery are shared across modes);
* :meth:`Substrate.silent_schedule` — what a sync-failed tag emits;
* :meth:`Substrate.demodulate` — the receiver;
* :meth:`Substrate.measure` — schedule-vs-demod accounting (coded modes
  replace raw chip counting with decode-then-compare).

Modes register under a string name; :class:`~repro.core.config.
SystemConfig` carries that name and :class:`~repro.core.system.
LScatterSystem` dispatches through it.  The default ``"chip"`` mode
delegates to the exact pre-refactor code paths, so a config that never
mentions substrates stays bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.bsrx.demodulator import BsDemodResult
from repro.core.metrics import measure_link
# iter_half_frames is re-exported: every substrate schedules through it.
from repro.tag.controller import ChipSchedule, iter_half_frames  # noqa: F401

# -- registry -----------------------------------------------------------------

_REGISTRY = {}


def register(cls):
    """Class decorator: make a :class:`Substrate` reachable by name."""
    if not getattr(cls, "name", ""):
        raise ValueError("substrate classes must define a non-empty 'name'")
    _REGISTRY[cls.name] = cls
    return cls


def available_substrates():
    """Registered substrate names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_substrate(name):
    """Look up a substrate class by name.

    Unknown names raise a ``KeyError`` that lists every registered mode,
    so a typo in a config or CLI flag is self-explaining.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown substrate {name!r}; registered substrates: {known}"
        ) from None


def ambient_kind_for(name):
    """The ambient-capture family a substrate consumes.

    Modes that modulate the same downlink LTE capture share one kind, so
    the fleet's :class:`~repro.fleet.ambient.AmbientCache` keeps sharing
    entries across them; the uplink SRS mode keys separately.
    """
    return get_substrate(name).ambient_kind


# -- shared helpers -----------------------------------------------------------


class _WindowSink:
    """Accumulates per-window demod output into a :class:`BsDemodResult`."""

    def __init__(self):
        self.window_bits = []
        self.window_soft = []
        self.window_erased = []
        self.starts = []

    def add(self, bits, soft, start, erased):
        bits = np.asarray(bits, dtype=np.int8)
        soft = np.asarray(soft, dtype=float)
        self.window_bits.append(bits)
        self.window_soft.append(soft)
        self.window_erased.append(bool(erased))
        self.starts.append(int(start))

    def result(self):
        if self.window_bits:
            bits = np.concatenate(self.window_bits)
            soft = np.concatenate(self.window_soft)
        else:
            bits = np.zeros(0, dtype=np.int8)
            soft = np.zeros(0)
        return BsDemodResult(
            bits=bits,
            soft=soft,
            starts=np.asarray(self.starts, dtype=np.int64),
            window_bits=self.window_bits,
            window_erased=self.window_erased,
        )


# -- the protocol -------------------------------------------------------------


class Substrate:
    """One pluggable tag-modulation / receiver mode.

    Subclasses set the class attributes and implement
    :meth:`build_schedule` and :meth:`demodulate`; everything else has a
    sensible default.  Instances are cheap, stateless views bound to one
    :class:`~repro.core.system.LScatterSystem`.
    """

    #: Registry name (``repro --substrate <name>``).
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
        raise NotImplementedError

    def silent_schedule(self, n_samples):
        """The schedule of a tag that never acquired sync: constant '1'."""
        return ChipSchedule(chips=np.ones(int(n_samples), dtype=np.int8))

    def demodulate(self, front):
        raise NotImplementedError

    def _useful(self, samples, half_start, slot, sym):
        """One symbol's useful part (no CP) of the half-frame at
        ``half_start``, and its start sample."""
        params = self.params
        start = half_start + params.useful_start(slot, sym)
        return samples[start : start + params.fft_size], start

    def measure(self, schedule, demod, tolerance):
        """Schedule-vs-demod accounting; default is raw chip counting."""
        return measure_link(schedule, demod, tolerance)
