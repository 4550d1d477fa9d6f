"""The tag's digital side: an FPGA-like scheduler driving the RF switch.

From the comparator's PSS edges the controller derives half-frame timing
(the PSS repeats every 5 ms; both halves of an LTE frame look identical to
the envelope circuit), subtracts its calibration constant for the known
analog delay, and lays out the chip schedule:

* every slot carries one packet: a preamble symbol then data symbols;
* the PSS and SSS symbols (last two of each sync slot) are never
  modulated — the switch keeps toggling with constant phase there, so the
  sync signals pass through unmodified (challenge C1);
* within each OFDM symbol the ``n_chips`` chips are centred in the useful
  part, so the cyclic prefix is avoided and residual sync error up to
  half the guard is tolerated (paper §3.2.3's 38.8 % slack).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lte.params import LteParams
from repro.lte.sss import SSS_SYMBOL_IN_SLOT
from repro.tag.framing import packetize, preamble_bits, slot_plan
from repro.tag.sync_circuit import COMPARATOR_DELAY_SECONDS

#: Calibration constant: the tag subtracts the nominal analog
#: delay from the start of the boosted SSS+PSS region to the comparator
#: edge (RC rise time + comparator propagation), learned at manufacturing
#: time.  Matches the mean of the Fig. 31 error distribution.
DEFAULT_CALIBRATION_SECONDS = COMPARATOR_DELAY_SECONDS + 23e-6


@dataclass
class TagTiming:
    """The tag's belief about where a half-frame starts."""

    half_frame_start: int  # estimated sample index
    error_samples: int = 0  # (genie) estimate minus truth, for evaluation


@dataclass
class ChipWindow:
    """One modulated symbol: where its chips landed and what they carry."""

    start: int  # absolute sample index of the first chip
    n_chips: int
    kind: str  # "preamble" or "data"
    bits: np.ndarray  # the chip bits (0/1), length n_chips


@dataclass
class ChipSchedule:
    """Chip values for a whole capture plus genie bookkeeping."""

    chips: np.ndarray  # int8 in {+1, -1}, one per capture sample
    windows: list = field(default_factory=list)
    payload_bits: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int8))
    n_half_frames: int = 0  # half-frames actually scheduled


def iter_half_frames(
    timing,
    n_samples,
    half_frame_samples,
    owned_half_frames=None,
    drift_per_half_frame=0.0,
):
    """Yield ``(half_index, half_start, drift)`` for owned half-frames.

    The half-frame loop of every tag schedule, the chip scheme's and every
    substrate's.  It starts at the first half-frame overlapping the
    capture: windows before sample 0 are clipped individually by the
    caller, so a small negative timing error never skips a half-frame.
    """
    if owned_half_frames is not None:
        owned_half_frames = {int(h) for h in owned_half_frames}
    half_start = int(timing.half_frame_start)
    while half_start < -half_frame_samples // 2:
        half_start += half_frame_samples
    half_index = -1
    while half_start + half_frame_samples <= n_samples:
        half_index += 1
        if owned_half_frames is None or half_index in owned_half_frames:
            drift = int(round(half_index * float(drift_per_half_frame)))
            yield half_index, half_start, drift
        half_start += half_frame_samples


class TagController:
    """Schedule chips against the tag's (imperfect) notion of LTE timing."""

    def __init__(self, params):
        self.params = (
            params if isinstance(params, LteParams) else LteParams.from_bandwidth(params)
        )
        self.n_chips = self.params.n_subcarriers
        # Chips are centred in the useful symbol: equal guard either side.
        self.chip_offset = (self.params.fft_size - self.n_chips) // 2

    # -- timing ---------------------------------------------------------------

    def timing_from_sync(self, sync_result, true_half_frame_start=None):
        """Derive half-frame timing from comparator edges.

        The comparator fires shortly after the boosted SSS+PSS region
        begins charging the RC filter; the calibration constant maps the
        edge back to the sync-region start, from which the half-frame
        boundary follows (SSS is symbol 5 of the half-frame's first slot).
        """
        if len(sync_result.edges) == 0:
            raise ValueError("no sync edges detected — tag cannot transmit")
        fs = self.params.sample_rate_hz
        sync_start = self.params.symbol_start(0, SSS_SYMBOL_IN_SLOT)
        calibration = int(round(DEFAULT_CALIBRATION_SECONDS * fs))
        half = self.params.samples_per_frame // 2
        # Average every detection back to the first half-frame boundary —
        # the FPGA's crystal is stable over a capture, so averaging N PSS
        # events shrinks the jitter by sqrt(N).
        edges = np.asarray(sync_result.edges, dtype=np.int64)
        periods = np.round((edges - edges[0]) / half).astype(np.int64)
        folded = edges - periods * half
        # Median folding rejects the occasional data-burst false edge.
        estimate = int(round(float(np.median(folded)))) - calibration - sync_start
        # Normalise to the representative nearest zero: the schedule
        # repeats every half-frame, so timing is only meaningful mod half.
        estimate = ((estimate + half // 2) % half) - half // 2
        error = (
            estimate - int(true_half_frame_start)
            if true_half_frame_start is not None
            else 0
        )
        return TagTiming(half_frame_start=estimate, error_samples=error)

    def genie_timing(self, true_half_frame_start, error_samples=0):
        """Timing with a controlled error — used by sweeps and ablations."""
        return TagTiming(
            half_frame_start=int(true_half_frame_start) + int(error_samples),
            error_samples=int(error_samples),
        )

    # -- scheduling -------------------------------------------------------------

    def _symbol_plan(self):
        """(slot, symbol) pairs modulated per half-frame, packet-ordered."""
        return slot_plan()

    def build_schedule(
        self,
        timing,
        n_samples,
        payload_bits,
        owned_half_frames=None,
        drift_per_half_frame=0.0,
    ):
        """Lay chips over a capture of ``n_samples`` samples.

        ``payload_bits`` are consumed packet by packet until either the
        capture or the payload runs out; remaining capacity idles at '1'.

        ``owned_half_frames`` restricts modulation to the given half-frame
        indices (0 = first half-frame of the capture) — the hook a MAC
        scheme uses to share the cell among several tags; half-frames the
        tag does not own are left unmodulated (constant '1' chips) and
        consume no payload.  ``None`` (the default) owns every half-frame.

        ``drift_per_half_frame`` models tag clock drift (fault injection):
        the k-th half-frame's chip windows shift by ``round(k * drift)``
        samples, so a drifting clock walks the chips out of the guard
        slack over the capture.  Returns a :class:`ChipSchedule`.
        """
        params = self.params
        payload_bits = np.asarray(payload_bits, dtype=np.int8)
        chips = np.ones(int(n_samples), dtype=np.int8)
        windows = []
        preamble = preamble_bits(self.n_chips)

        plan = self._symbol_plan()
        consumed = 0
        n_half_frames = 0
        half = params.samples_per_frame // 2
        for _index, half_start, drift in iter_half_frames(
            timing, n_samples, half, owned_half_frames, drift_per_half_frame
        ):
            n_half_frames += 1
            for slot_symbols in plan:
                data_symbols = len(slot_symbols) - 1
                remaining = payload_bits[consumed:]
                take = min(len(remaining), data_symbols * self.n_chips)
                rows = packetize(remaining[:take], data_symbols, self.n_chips)
                consumed += take
                for index, (slot, sym) in enumerate(slot_symbols):
                    start = (
                        half_start
                        + params.useful_start(slot, sym)
                        + self.chip_offset
                        + drift
                    )
                    if start < 0 or start + self.n_chips > n_samples:
                        continue
                    if index == 0:
                        bits = preamble
                        kind = "preamble"
                    else:
                        bits = rows[index - 1]
                        kind = "data"
                    # Data '1' -> initial phase 0 (chip +1); '0' -> pi (-1).
                    chips[start : start + self.n_chips] = 2 * bits - 1
                    windows.append(
                        ChipWindow(
                            start=int(start),
                            n_chips=self.n_chips,
                            kind=kind,
                            bits=bits.copy(),
                        )
                    )

        return ChipSchedule(
            chips=chips,
            windows=windows,
            payload_bits=payload_bits[:consumed].copy(),
            n_half_frames=n_half_frames,
        )
