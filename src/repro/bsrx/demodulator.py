"""Parallel chip demodulation of the hybrid LTE signal (paper §3.3.3).

For every packet the demodulator

1. locates the preamble (modulation offset, Eq. 7) and estimates the
   backscatter channel — the general, frequency-selective form of the
   paper's phase offset phi (Eq. 5/6, challenge C3);
2. derotates/equalises the per-unit products;
3. slices chips by the sign of the matched-filter output.

Multipath sits on *both* hops of the cascade (eNodeB->tag and tag->UE),
and chip multiplication does not commute with filtering, so one linear
equaliser cannot fix both.  Physically the tag is near one endpoint
(paper Fig. 19: "within 15 feet of either eNodeB or UE"), which makes one
hop near-flat; the receiver therefore runs two hypotheses per packet and
keeps whichever reproduces the known preamble better:

* **post-EQ** — reference is the ambient waveform ``x``; the preamble
  sounds the (out-hop) channel and data symbols are equalised by it.
  Exact when the eNodeB->tag hop is flat.
* **pre-distorted reference** — the cascade response is estimated from the
  tag's *unmodulated* reflection of the PSS/SSS symbols (the tag never
  modulates those, so they arrive as a clean sounding every 5 ms); the
  reference becomes ``h_cascade * x`` and decisions are straight matched
  filtering.  Exact when the tag->UE hop is flat.

The reconstruction reference ``x_n`` (the ambient LTE samples) comes from
the UE's normal LTE decode of the direct path: the UE re-encodes the
transport blocks it just decoded and re-synthesises the time-domain frame.
The end-to-end system (:mod:`repro.core.system`) wires that in.

One kernel, :meth:`BackscatterDemodulator._demod_half_frame`, demodulates
a ``(n_rows, n_samples)`` stack whose every row is one half-frame of one
tag.  Symbol offsets built once per numerology gather each row's 2
sounding, 10 preamble and 58 data symbols from strided views of the
stack; the sounding and preamble symbols are transformed once, both
hypotheses' offset searches run as one stacked call over all (row,
packet) pairs, the post-eq equaliser weights are computed once per
packet, and each equalisation runs once over all (row, window) pairs.
Both entry points reach that kernel:

* :meth:`BackscatterDemodulator.demodulate_many` — every tag riding one
  shared ambient capture at once.  Its (tag, half-frame) pairs run in
  start order, up to :data:`STACK_SAMPLE_BUDGET` samples of half-frames
  per kernel call (3 at 1.4 MHz, 1 from 3 MHz up); one tag's consecutive
  half-frames are one strided view of its row, any other group an
  ``np.stack`` copy;
* :meth:`BackscatterDemodulator.demodulate` — one tag, as a one-row
  :meth:`~BackscatterDemodulator.demodulate_many` stack.

Each half-frame re-sounds the cascade on the tag's unmodulated PSS/SSS
reflection and stands alone, so a half-frame's result does not depend
on which others share its kernel call, and the kernel only ever sees a
budget's worth of the capture: a long or memory-mapped recording is
never loaded whole.

A capture whose tail is shorter than a full half-frame (an externally
truncated recording, or a grid that runs off the capture's end) goes
through the same kernel: per-packet and per-window "fits" masks select
the symbols that lie inside the capture, and packets whose
sounding/preamble/data symbols run past the end emit erasure windows
(placeholder bits the accounting layer excludes) instead of being
silently dropped mid-grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.bsrx.equalizer import channel_from_spectra, equalizer_weights
from repro.bsrx.mod_offset import find_modulation_offset
from repro.lte.ofdm import frame_layout, row_fft, row_ifft
from repro.lte.params import LteParams
from repro.lte.pss import PSS_SYMBOL_IN_SLOT
from repro.lte.resource_grid import symbol_index
from repro.lte.sss import SSS_SYMBOL_IN_SLOT
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.tag.framing import preamble_bits, slot_plan

#: Packet models, indexed by the kernel's per-packet model codes.
_MODELS = ("truncated", "erased", "post-eq", "predistort")
_TRUNCATED, _ERASED, _POST_EQ, _PREDISTORT = range(len(_MODELS))

#: Samples per stream one kernel call may cover: a call stacks up to
#: ``max(1, STACK_SAMPLE_BUDGET // half_frame_span)`` half-frames, so a
#: 1.4 MHz capture (9 600-sample half-frames) runs 3 at a time and 3 MHz
#: and up one.  Per-call overhead dominates the short-symbol kernel, while
#: larger stacks cost more than they save from 10 MHz up and grow the
#: working set of a memory-mapped capture.
STACK_SAMPLE_BUDGET = 32_768


def window_snr_db(soft, reference_power=None):
    """Post-detection SNR proxy of one window's matched-filter outputs.

    For ±1 chips the soft values are ``a_k * b_k + n_k``, so the
    second-moment method estimates the signal amplitude as ``mean(|s|)``
    and the noise power as ``mean(s^2) - mean(|s|)^2``.  A clean window
    has tightly clustered ``|s|`` (noise power near zero, SNR large); a
    jammed window's soft values scatter and the ratio collapses — the
    statistic the per-window erasure escalation gates on.

    The matched-filter output scales with the ambient's per-chip power
    ``|x_k|^2``, which fluctuates strongly across an OFDM symbol — raw
    soft values therefore scatter even on a noiseless link.  Pass that
    chip power as ``reference_power`` to divide it out first; the
    normalised values cluster at ``±b`` per chip and the proxy then
    measures link corruption, not ambient amplitude statistics.

    Works along the last axis: a ``(..., n_chips)`` stack of windows
    returns one SNR per row, a single window a float.
    """
    soft = np.asarray(soft, dtype=float)
    if soft.shape[-1] == 0:
        snr = np.full(soft.shape[:-1], -np.inf)
        return float(snr) if snr.ndim == 0 else snr
    if reference_power is not None:
        reference_power = np.asarray(reference_power, dtype=float)
        floor = 1e-12 * np.mean(reference_power, axis=-1, keepdims=True)
        soft = soft / np.maximum(reference_power, np.where(floor > 0, floor, 1.0))
    amplitude = np.mean(np.abs(soft), axis=-1)
    power = np.mean(soft**2, axis=-1)
    noise = np.maximum(power - amplitude**2, 1e-12 * power)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = 10.0 * np.log10(amplitude**2 / noise)
    snr = np.where(amplitude == 0.0, -np.inf, snr)
    return float(snr) if snr.ndim == 0 else snr


@dataclass
class PacketRecord:
    """Per-packet demodulation bookkeeping."""

    half_frame_start: int
    slot: int
    offset: int
    gain: complex
    metric: float
    model: str = "post-eq"
    preamble_errors: int = 0
    data_starts: list = field(default_factory=list)


@dataclass
class BsDemodResult:
    """Recovered chip stream for one capture."""

    bits: np.ndarray  # concatenated data bits, packet order
    soft: np.ndarray  # matched-filter soft values, same order
    starts: np.ndarray  # absolute sample index of each data window
    window_bits: list = field(default_factory=list)  # per-window bit arrays
    #: Per-window erasure flags: True where the packet's preamble
    #: correlation collapsed (sync lost) and the bits are placeholders.
    window_erased: list = field(default_factory=list)
    packets: list = field(default_factory=list)

    @property
    def n_data_windows(self):
        return len(self.window_bits)

    @property
    def n_erased_windows(self):
        return int(sum(bool(flag) for flag in self.window_erased))


class _DemodSink:
    """Accumulates one capture's windows/packets across kernel calls."""

    __slots__ = (
        "soft_blocks",
        "starts",
        "window_bits",
        "window_erased",
        "packets",
        "truncated_windows",
    )

    def __init__(self):
        self.soft_blocks = []
        self.starts = []
        self.window_bits = []
        self.window_erased = []
        self.packets = []
        self.truncated_windows = 0

    def add_windows(self, base, starts, bits, soft, erased):
        """Append consecutive windows (rows of ``bits``/``soft``).

        ``base`` shifts the half-frame-relative ``starts`` back to capture
        coordinates; returns those absolute starts, as a list.
        """
        absolute = (base + starts).tolist()
        self.window_bits.extend(bits)
        self.soft_blocks.append(soft)
        self.window_erased.extend(erased.tolist())
        self.starts.extend(absolute)
        return absolute

    def result(self):
        if self.window_bits:
            bits = np.concatenate(self.window_bits)
            soft = np.concatenate(self.soft_blocks).reshape(-1)
        else:
            bits = np.zeros(0, dtype=np.int8)
            soft = np.zeros(0)
        obs_metrics.counter_inc("bsrx.packets", len(self.packets))
        obs_metrics.counter_inc("bsrx.windows", len(self.window_bits))
        n_erased = int(sum(bool(flag) for flag in self.window_erased))
        if n_erased:
            obs_metrics.counter_inc("bsrx.erasures", n_erased)
        if self.truncated_windows:
            obs_metrics.counter_inc("bsrx.truncated_windows", self.truncated_windows)
        return BsDemodResult(
            bits=bits,
            soft=soft,
            starts=np.asarray(self.starts, dtype=np.int64),
            window_bits=self.window_bits,
            window_erased=self.window_erased,
            packets=self.packets,
        )


def _windows(samples, width):
    """Read-only view of every ``width``-sample window along the last axis.

    ``_windows(a, width)[..., start, :]`` is ``a[..., start : start +
    width]``; the view costs a fraction of ``sliding_window_view``'s
    argument checks, which the kernel would pay on every gather.
    """
    *lead, n = samples.shape
    return as_strided(
        samples,
        (*lead, n - width + 1, width),
        samples.strides + samples.strides[-1:],
        writeable=False,
    )


def _slices(captures, rows, starts, size, stride):
    """``captures[row][start : start + size]`` for each pair, as one stack.

    Consecutive half-frames of one row (starts ``stride`` apart) are one
    strided view of that row; any other set is an ``np.stack`` copy.
    """
    first = captures[rows[0]]
    if rows.count(rows[0]) == len(rows) and all(
        b - a == stride for a, b in zip(starts, starts[1:])
    ):
        step = first.strides[0]
        return as_strided(
            first[starts[0] :],
            (len(starts), size),
            (stride * step, step),
            writeable=False,
        )
    return np.stack([captures[row][s : s + size] for row, s in zip(rows, starts)])


def _at_offsets(symbols, offsets, width):
    """``symbols[..., o : o + width]`` for the offset ``o`` of each row."""
    rows = np.arange(offsets.size)
    windows = _windows(symbols.reshape(offsets.size, -1), width)
    return windows[rows, offsets.reshape(-1)].reshape(offsets.shape + (width,))


class BackscatterDemodulator:
    """Demodulate tag chips from a shifted-band capture."""

    def __init__(self, params, erasure_threshold=None, snr_gate_db=None):
        self.params = (
            params if isinstance(params, LteParams) else LteParams.from_bandwidth(params)
        )
        self.n_chips = self.params.n_subcarriers
        self.nominal_offset = (self.params.fft_size - self.n_chips) // 2
        # The offset search reaches across the whole guard either side.
        self.search_slack = self.nominal_offset
        self._preamble = preamble_bits(self.n_chips)
        self._preamble_signs = (2 * self._preamble - 1).astype(float)
        #: Erasure detection: when the better of the two per-packet
        #: hypotheses still mis-slices more than this fraction of the
        #: *known* preamble, the receiver has lost sync for that packet
        #: (a random guess errs ~50 %); its data windows are emitted as
        #: erasures instead of garbage bits, and demodulation re-acquires
        #: at the next PSS-derived half-frame boundary.  ``None`` keeps
        #: the legacy always-emit behaviour.
        self.erasure_threshold = (
            float(erasure_threshold) if erasure_threshold is not None else None
        )
        #: Per-window erasure escalation: even when a packet's preamble
        #: passed, a *data* window whose post-detection SNR proxy
        #: (:func:`window_snr_db`) falls below this many dB is emitted as
        #: an erasure instead of bits — a jammer burst inside an otherwise
        #: healthy packet then feeds the ARQ path instead of the BER.
        #: ``None`` (default) disables the gate (bit-identical legacy).
        self.snr_gate_db = float(snr_gate_db) if snr_gate_db is not None else None

        # Half-frame geometry, built once: useful-symbol starts relative to
        # the half-frame start of the 2 sounding symbols (SSS, PSS), the 10
        # packet preambles and the 58 data windows, each in time order.
        fft = self.params.fft_size
        useful_starts = frame_layout(self.params).useful_starts
        plan = slot_plan()

        def starts(pairs):
            return useful_starts[[symbol_index(*pair) for pair in pairs]]

        sounding = [(0, SSS_SYMBOL_IN_SLOT), (0, PSS_SYMBOL_IN_SLOT)]
        self._sounding_starts = starts(sounding)
        self._preamble_starts = starts([packet[0] for packet in plan])
        #: The symbols a packet decision reads: sounding, then preambles.
        self._sync_starts = np.concatenate(
            (self._sounding_starts, self._preamble_starts)
        )
        self._window_starts = starts(
            [pair for packet in plan for pair in packet[1:]]
        )
        self._packet_slots = [packet[0][0] for packet in plan]
        windows_per_packet = [len(packet) - 1 for packet in plan]
        #: Packet of every data window, and each packet's window range.
        self._window_packet = np.repeat(np.arange(len(plan)), windows_per_packet)
        bounds = np.cumsum([0] + windows_per_packet).tolist()
        self._packet_windows = list(zip(bounds[:-1], bounds[1:]))
        self._chip_cols = np.arange(self.n_chips)
        #: Samples one half-frame's demodulation reaches past its start
        #: (the end of slot 9's last useful symbol == the half-frame
        #: stride, so consecutive half-frames tile the capture exactly).
        self.half_frame_span = int(useful_starts[symbol_index(9, 6)]) + fft

    # -- main entries --------------------------------------------------------------

    def demodulate(self, shifted_samples, ambient_reference, half_frame_starts):
        """Run the pipeline over every packet of a capture.

        ``half_frame_starts`` are the UE's (PSS-derived) half-frame
        boundaries, sample indices into both input arrays.  The capture is
        a one-row :meth:`demodulate_many` stack.
        """
        shifted_samples = np.asarray(shifted_samples, dtype=complex)
        ambient_reference = np.asarray(ambient_reference, dtype=complex)
        if shifted_samples.shape != ambient_reference.shape:
            raise ValueError("capture and reference must be sample-aligned")
        (result,) = self.demodulate_many(
            shifted_samples[None], ambient_reference[None], half_frame_starts
        )
        return result

    def demodulate_many(self, shifted_stack, reference_stack, half_frame_starts):
        """Demodulate every tag riding one shared ambient capture at once.

        ``shifted_stack``/``reference_stack`` hold one equal-length capture
        per tag, as an ``(n_tags, n_samples)`` array or a sequence of 1-D
        rows: row ``t`` is what tag ``t``'s UE captured and reconstructed.
        ``half_frame_starts`` is either one grid of PSS-derived half-frame
        starts for every row, or one grid per row (the half-frames each
        tag owns).  The (row, start) pairs run in ascending start order,
        each sliced to ``[start, start + half_frame_span)``, and groups of
        up to ``max(1, STACK_SAMPLE_BUDGET // half_frame_span)``
        equal-length slices share one kernel call, so its FFTs, channel
        estimates, offset searches and matched filters run as single
        batched transforms; a shorter trailing half-frame runs alone.
        Returns one :class:`BsDemodResult` per row; a row's result does not
        depend on the other rows or on how its half-frames are grouped.
        """
        shifted_rows = [np.asarray(row, dtype=complex) for row in shifted_stack]
        reference_rows = [np.asarray(row, dtype=complex) for row in reference_stack]
        shapes = {row.shape for row in shifted_rows}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise ValueError("expected (n_tags, n_samples) stacks")
        if [row.shape for row in reference_rows] != [
            row.shape for row in shifted_rows
        ]:
            raise ValueError("captures and references must be sample-aligned")
        grids = list(half_frame_starts)
        if not (grids and np.ndim(grids[0])):
            grids = [grids] * len(shifted_rows)
        elif len(grids) != len(shifted_rows):
            raise ValueError("expected one half-frame grid per row")

        pairs = sorted(
            (int(start), row)
            for row, grid in enumerate(grids)
            for start in grid
            if int(start) >= 0
        )
        n_samples = shifted_rows[0].size if shifted_rows else 0
        span = self.half_frame_span

        def length(pair):
            return max(0, min(pair[0] + span, n_samples) - pair[0])

        per_call = max(1, STACK_SAMPLE_BUDGET // span)
        sinks = [_DemodSink() for _ in shifted_rows]
        for size, run in itertools.groupby(pairs, key=length):
            run = list(run)
            for k in range(0, len(run), per_call):
                starts, rows = zip(*run[k : k + per_call])
                self._demod_half_frame(
                    _slices(shifted_rows, rows, starts, size, span),
                    _slices(reference_rows, rows, starts, size, span),
                    [sinks[row] for row in rows],
                    starts,
                )
        return [sink.result() for sink in sinks]

    # -- the kernel ----------------------------------------------------------------

    def _chip_waveforms(self, offsets):
        """±1 chips over useful symbols: the preamble at ``offsets``, idle +1."""
        chips = np.ones(offsets.shape + (self.params.fft_size,))
        cols = offsets[..., None] + self._chip_cols
        np.put_along_axis(chips, cols, self._preamble_signs, axis=-1)
        return chips

    def _preamble_errors(self, soft):
        return np.count_nonzero((soft > 0) != self._preamble, axis=-1)

    def _demod_half_frame(self, shifted, reference, sinks, bases):
        """Demodulate one half-frame per row of a ``(n_rows, n)`` stack.

        Row ``t`` starts at the first sample of the half-frame at capture
        index ``bases[t]`` and feeds ``sinks[t]``; emitted indices are
        shifted by that base.  A half-frame reaching past the end of the
        stack is the truncated-tail case: packets whose sounding and
        preamble fit demodulate normally, the rest emit erasure windows.
        Only symbols that fit are ever read.
        """
        n_tags, limit = shifted.shape
        fft, n_chips = self.params.fft_size, self.n_chips
        n_packets = len(self._packet_slots)
        window_packet = self._window_packet
        data_starts = self._window_starts
        nominal_starts = data_starts + self.nominal_offset
        # Symbols are in time order, so the packets and windows that fit
        # are prefixes.  Every packet also needs the PSS sounding, which
        # follows packet 0's preamble.
        window_fits = data_starts + fft <= limit
        n_fit = 0
        if self._sounding_starts[-1] + fft <= limit:
            preamble_ends = self._preamble_starts + fft
            n_fit = int(np.count_nonzero(preamble_ends <= limit))

        # Per (tag, packet) decisions; packets that do not fit keep these.
        model = np.full((n_tags, n_packets), _TRUNCATED)
        offset = np.full((n_tags, n_packets), self.nominal_offset)
        gain = np.zeros((n_tags, n_packets), dtype=complex)
        metric = np.zeros((n_tags, n_packets))
        errors = np.full((n_tags, n_packets), n_chips)
        soft = np.zeros((n_tags, len(window_packet), n_chips))
        bits = np.zeros(soft.shape, dtype=np.int8)
        live = np.zeros(soft.shape[:2], dtype=bool)
        gated = np.zeros_like(live)
        if n_fit:
            rows = np.arange(n_tags)[:, None]
            # Every useful symbol and every chip window of each row, as views.
            y_symbols = _windows(shifted, fft)
            x_symbols = _windows(reference, fft)
            y_windows = _windows(shifted, n_chips)
            x_windows = _windows(reference, n_chips)
            # The 2 sounding and n_fit preamble symbols, transformed once.
            sync_starts = self._sync_starts[: 2 + n_fit]
            y_sync = y_symbols[rows, sync_starts]
            x_sync = x_symbols[rows, sync_starts]
            y_spectra, x_spectra = row_fft(y_sync), row_fft(x_sync)
            with span("bsrx.sync"):
                # Sound the cascade on the tag's unmodulated SSS/PSS reflection.
                sounding = channel_from_spectra(y_spectra[:, :2], x_spectra[:, :2])
                cascade = np.mean(sounding, axis=1)
            starts = self._preamble_starts[:n_fit]
            y0, x0 = y_sync[:, 2:], x_sync[:, 2:]
            with span("bsrx.phase_offset"):
                # Hypothesis B's reference carries the cascade.  Both
                # hypotheses' offset searches run as one stack: A against
                # the ambient x0, B against the pre-distorted w0.
                w0 = row_ifft(np.multiply(x_spectra[:, 2:], cascade[:, None]))
                est = find_modulation_offset(
                    np.broadcast_to(y0, (2,) + y0.shape),
                    np.stack((x0, w0)),
                    self._preamble,
                    self.nominal_offset,
                    self.search_slack,
                )
                offset_a, offset_b = est.offset
                # Hypothesis A: flat in-hop; the preamble sounds the out-hop.
                # Its spectrum serves both the channel estimate and the
                # equaliser, whose weights every data window of the packet
                # reuses.
                y0_spectrum = y_spectra[:, 2:]
                expected = np.multiply(x0, self._chip_waveforms(offset_a))
                weights_a = equalizer_weights(
                    channel_from_spectra(y0_spectrum, row_fft(expected))
                )
                y0_eq = row_ifft(np.multiply(y0_spectrum, weights_a))
                soft_a = np.real(
                    np.multiply(
                        _at_offsets(y0_eq, offset_a, n_chips),
                        np.conj(x_windows[rows, starts + offset_a]),
                    )
                )
                # Hypothesis B: flat out-hop; the reference carries the cascade.
                derotate_b = np.conj(est.gain[1])
                soft_b = np.real(
                    np.multiply(
                        np.multiply(
                            derotate_b[..., None], y_windows[rows, starts + offset_b]
                        ),
                        np.conj(_at_offsets(w0, offset_b, n_chips)),
                    )
                )
            errors_a = self._preamble_errors(soft_a)
            errors_b = self._preamble_errors(soft_b)
            use_post = errors_a <= errors_b
            decided = np.where(use_post, _POST_EQ, _PREDISTORT)
            errors[:, :n_fit] = np.minimum(errors_a, errors_b)
            if self.erasure_threshold is not None:
                # Preamble correlation collapsed: sync is lost for this
                # packet.  Its data windows become erasures (nominal
                # offset, placeholder bits) and demodulation re-acquires
                # at the next PSS-derived half-frame boundary.
                lost = errors[:, :n_fit] > self.erasure_threshold * n_chips
                decided[lost] = _ERASED
            chosen = decided != _ERASED
            model[:, :n_fit] = decided
            offset[:, :n_fit] = np.where(
                chosen, np.where(use_post, *est.offset), self.nominal_offset
            )
            gain[:, :n_fit] = np.where(chosen, np.where(use_post, *est.gain), 0j)
            metric[:, :n_fit] = np.where(
                chosen, np.where(use_post, *est.metric), 0.0
            )

            window_model = model[:, window_packet]
            live = (window_model >= _POST_EQ) & window_fits
            tags, wins = np.nonzero(live)
            packets = window_packet[wins]
            # Every live window's reference chips, gathered once for the
            # post-eq matched filter and the SNR gate.
            x_chips = x_windows[tags, data_starts[wins] + offset[tags, packets]]
            post = window_model[tags, wins] == _POST_EQ
            n_post = int(np.count_nonzero(post))
            with span("bsrx.equalise"):
                if n_post == len(post):
                    # One model covers every live window (the usual case):
                    # no mask copies.
                    t, w, p, x_post = tags, wins, packets, x_chips
                else:
                    t, w, p = tags[post], wins[post], packets[post]
                    x_post = x_chips[post]
                if n_post:
                    y = y_symbols[t, data_starts[w]]
                    y_eq = row_ifft(np.multiply(row_fft(y), weights_a[t, p]))
                    soft[t, w] = np.real(
                        np.multiply(
                            _at_offsets(y_eq, offset[t, p], n_chips),
                            np.conj(x_post),
                        )
                    )
                if n_post < len(post):
                    pre = ~post
                    t, w, p = tags[pre], wins[pre], packets[pre]
                    x = x_symbols[t, data_starts[w]]
                    w_sym = row_ifft(np.multiply(row_fft(x), cascade[t]))
                    y_chips = y_windows[t, data_starts[w] + offset[t, p]]
                    soft[t, w] = np.real(
                        np.multiply(
                            np.multiply(derotate_b[t, p][:, None], y_chips),
                            np.conj(_at_offsets(w_sym, offset[t, p], n_chips)),
                        )
                    )
            if self.snr_gate_db is not None and len(tags):
                # SNR-gated erasure escalation: a jammed data symbol inside
                # an otherwise healthy packet becomes an erasure
                # (ARQ-visible) instead of garbage bits.
                snr = window_snr_db(soft[tags, wins], np.abs(x_chips) ** 2)
                gated[tags, wins] = snr < self.snr_gate_db
                soft[gated] = 0.0
                n_gated = int(np.count_nonzero(gated))
                if n_gated:
                    obs_metrics.counter_inc("bsrx.snr_erasures", n_gated)
            with span("bsrx.demod"):
                bits = (soft > 0).astype(np.int8)

        # Windows that start past the capture never existed; the rest of a
        # packet that is not demodulated sits at the nominal offset, and
        # counts as truncated unless its packet lost sync.
        window_model = model[:, window_packet]
        window_starts = np.where(
            live, data_starts + offset[:, window_packet], nominal_starts
        )
        erased = ~live | gated
        truncated = ~live & (window_model != _ERASED)
        n_emit = int(np.count_nonzero(nominal_starts < limit))
        for t, (sink, base) in enumerate(zip(sinks, bases)):
            absolute = sink.add_windows(
                base,
                window_starts[t, :n_emit],
                bits[t, :n_emit],
                soft[t, :n_emit],
                erased[t, :n_emit],
            )
            codes, offsets, gains, metrics, counts = (
                a[t].tolist() for a in (model, offset, gain, metric, errors)
            )
            for p, (d0, d1) in enumerate(self._packet_windows):
                # A packet that emits no window is recorded only if it was
                # demodulated (or erased) rather than cut off.
                if d0 >= n_emit and codes[p] == _TRUNCATED:
                    continue
                sink.packets.append(
                    PacketRecord(
                        half_frame_start=base,
                        slot=self._packet_slots[p],
                        offset=offsets[p],
                        gain=gains[p],
                        metric=metrics[p],
                        model=_MODELS[codes[p]],
                        preamble_errors=counts[p],
                        data_starts=absolute[d0:d1],
                    )
                )
            sink.truncated_windows += int(np.count_nonzero(truncated[t, :n_emit]))
