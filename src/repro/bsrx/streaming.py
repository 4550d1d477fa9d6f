"""Chunked streaming backscatter demodulation in bounded memory.

The whole-capture path (:meth:`BackscatterDemodulator.demodulate`) holds
the full shifted capture and reference in memory at once; for a
long-running receiver (hours of ambient LTE) that is linear in capture
length.  :class:`StreamingDemodulator` consumes the same capture in
half-frame-aligned chunks and carries its receiver state across chunk
boundaries, so memory stays O(chunk) however long the recording runs.

Two ways to feed it:

* :meth:`StreamingDemodulator.demodulate` — drop-in signature of the
  whole-capture call; the inputs may be memory-mapped arrays and only one
  chunk is materialised at a time.
* :meth:`StreamingDemodulator.push` + :meth:`StreamingDemodulator.finish`
  — incremental: hand over samples as they arrive (any ragged chunk
  lengths, including boundaries landing mid-packet); buffered samples are
  demodulated as soon as a full half-frame is available and the buffer is
  trimmed behind the grid.

Each half-frame runs through the demodulator's one kernel
(:meth:`BackscatterDemodulator._demod_half_frame`) as a one-row stack,
one half-frame at a time, so the kernel's working set is one half-frame
however large the chunk.  State carried across chunks
(:class:`StreamCarry`): the position of the next half-frame boundary on
the PSS-derived grid (which is the receiver's sync state — each boundary
is a re-acquisition point), plus the most recent packet gain and cascade
sounding as warm-start diagnostics.  The trailing partial half-frame at
end-of-capture goes through the kernel's truncated-tail handling and
comes out as erasure windows, never a crash or a silent drop.

Every emitted window is bit-identical to the whole-capture call on the
same samples: the kernel operates on chunk-local views whose contents
equal the corresponding capture slices, and all indices are shifted back
to absolute capture coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bsrx.demodulator import BackscatterDemodulator, _DemodSink
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

#: Default chunk size, in half-frames.  Four half-frames (20 ms) keep the
#: working set of a 20 MHz capture under ~20 MB while amortising the
#: per-chunk Python overhead.
DEFAULT_CHUNK_HALF_FRAMES = 4


@dataclass
class StreamCarry:
    """Receiver state carried across chunk boundaries."""

    #: Next half-frame boundary on the PSS-derived grid (absolute sample
    #: index) — the sync state: where demodulation resumes in the next
    #: chunk.
    next_half_frame_start: int = 0
    #: Half-frames fully demodulated so far.
    half_frames_done: int = 0
    #: Complex path gain of the most recent non-erased packet (the Eq. 5/6
    #: phase offset); a warm-start diagnostic — each half-frame re-sounds
    #: the channel on its own PSS/SSS reflection.
    last_gain: complex = 0j
    #: Cascade frequency response from the most recent sounding, if any.
    last_cascade: np.ndarray | None = field(default=None, repr=False)


class StreamingDemodulator:
    """Demodulate a capture chunk-by-chunk in bounded memory."""

    def __init__(
        self,
        params,
        chunk_half_frames=DEFAULT_CHUNK_HALF_FRAMES,
        search_slack=None,
        erasure_threshold=None,
        snr_gate_db=None,
        first_half_frame_start=0,
    ):
        self.chunk_half_frames = int(chunk_half_frames)
        if self.chunk_half_frames < 1:
            raise ValueError(
                f"chunk_half_frames must be >= 1, got {chunk_half_frames}"
            )
        self.demodulator = BackscatterDemodulator(
            params,
            search_slack=search_slack,
            erasure_threshold=erasure_threshold,
            snr_gate_db=snr_gate_db,
        )
        self.params = self.demodulator.params
        #: Samples per half-frame (also the demodulation span of one
        #: half-frame — slot 9's last useful symbol ends exactly on the
        #: next boundary).
        self.half_frame_samples = self.params.samples_per_frame // 2
        self.carry = StreamCarry(
            next_half_frame_start=int(first_half_frame_start)
        )
        self._sink = _DemodSink()
        self._buffer_shifted = np.zeros(0, dtype=complex)
        self._buffer_reference = np.zeros(0, dtype=complex)
        #: Absolute capture index of ``_buffer_shifted[0]``.  The
        #: incremental API assumes pushes start at sample 0; samples
        #: before ``first_half_frame_start`` are buffered but never
        #: demodulated (the grid starts there).
        self._buffer_base = 0
        self._finished = False

    # -- incremental API ---------------------------------------------------------

    @property
    def buffered_samples(self):
        return len(self._buffer_shifted)

    def push(self, shifted_chunk, ambient_reference_chunk):
        """Feed the next samples of both streams (any length, even 0).

        Full half-frames are demodulated as soon as they are buffered;
        the internal buffer keeps only the unfinished tail, so feeding
        bounded-size chunks bounds total memory.
        """
        if self._finished:
            raise RuntimeError("stream already finished")
        shifted_chunk = np.asarray(shifted_chunk, dtype=complex)
        reference_chunk = np.asarray(ambient_reference_chunk, dtype=complex)
        if shifted_chunk.shape != reference_chunk.shape:
            raise ValueError("capture and reference chunks must be sample-aligned")
        self._buffer_shifted = np.concatenate([self._buffer_shifted, shifted_chunk])
        self._buffer_reference = np.concatenate(
            [self._buffer_reference, reference_chunk]
        )
        self._drain()

    def _drain(self):
        """Demodulate every fully buffered half-frame and trim behind it."""
        demod = self.demodulator
        stride = self.half_frame_samples
        span_needed = demod.half_frame_span
        limit = len(self._buffer_shifted)
        while True:
            local = self.carry.next_half_frame_start - self._buffer_base
            if local < 0 or local + span_needed > limit:
                break
            self._sink.base = self._buffer_base
            self._demod_half_frame(
                self._buffer_shifted, self._buffer_reference, local, self._sink
            )
            self.carry.next_half_frame_start += stride
            self.carry.half_frames_done += 1
        # Trim everything before the next boundary: it can never be
        # touched again (each half-frame's span ends on the next one).
        local = self.carry.next_half_frame_start - self._buffer_base
        if local > 0:
            drop = min(local, len(self._buffer_shifted))
            self._buffer_shifted = self._buffer_shifted[drop:]
            self._buffer_reference = self._buffer_reference[drop:]
            self._buffer_base += drop

    def _demod_half_frame(self, shifted, reference, local, sink):
        """Run the kernel on one half-frame and carry its sync state on."""
        cascade = self.demodulator._demod_half_frame(
            shifted[None], reference[None], local, [sink]
        )
        if cascade is not None:
            self.carry.last_cascade = cascade[0]
        for packet in reversed(sink.packets):
            if packet.model in ("post-eq", "predistort"):
                self.carry.last_gain = packet.gain
                break

    def finish(self):
        """Flush the trailing partial half-frame and return the result.

        The leftover tail (shorter than a full half-frame — the
        not-a-whole-number-of-half-frames case) runs through the kernel's
        truncated-tail handling: packets that still fit demodulate
        normally, the rest emit erasure windows.
        """
        if self._finished:
            raise RuntimeError("stream already finished")
        self._finished = True
        limit = len(self._buffer_shifted)
        local = self.carry.next_half_frame_start - self._buffer_base
        if 0 <= local < limit:
            self._sink.base = self._buffer_base
            self._demod_half_frame(
                self._buffer_shifted, self._buffer_reference, local, self._sink
            )
        self._buffer_shifted = np.zeros(0, dtype=complex)
        self._buffer_reference = np.zeros(0, dtype=complex)
        obs_metrics.counter_inc(
            "bsrx.stream_half_frames", self.carry.half_frames_done
        )
        return self._sink.result()

    # -- whole-capture convenience ------------------------------------------------

    def demodulate(self, shifted_samples, ambient_reference, half_frame_starts):
        """Whole-capture signature, chunked execution.

        ``shifted_samples``/``ambient_reference`` may be memory-mapped;
        only ``chunk_half_frames`` half-frames (plus the ragged tail) are
        materialised at a time.  Bit-identical to
        :meth:`BackscatterDemodulator.demodulate` on the same inputs.
        """
        if self._finished:
            raise RuntimeError("stream already finished")
        n = len(shifted_samples)
        if len(ambient_reference) != n:
            raise ValueError("capture and reference must be sample-aligned")
        starts = [int(s) for s in half_frame_starts]
        demod = self.demodulator
        span_needed = demod.half_frame_span
        sink = _DemodSink()
        chunk = self.chunk_half_frames
        with span("bsrx.stream") as sp:
            for i in range(0, len(starts), chunk):
                group = starts[i : i + chunk]
                valid = [s for s in group if s >= 0]
                if not valid:
                    continue
                base = min(valid)
                end = min(max(s + span_needed for s in valid), n)
                if end <= base:
                    continue
                shifted_chunk = np.asarray(
                    shifted_samples[base:end], dtype=complex
                )
                reference_chunk = np.asarray(
                    ambient_reference[base:end], dtype=complex
                )
                sink.base = base
                for s in group:
                    if s < 0:
                        continue
                    self._demod_half_frame(
                        shifted_chunk, reference_chunk, s - base, sink
                    )
                    self.carry.next_half_frame_start = s + self.half_frame_samples
                    if s + span_needed <= n:
                        self.carry.half_frames_done += 1
            sp.set(
                n_chunks=(len(starts) + chunk - 1) // chunk,
                chunk_half_frames=chunk,
            )
        self._finished = True
        obs_metrics.counter_inc(
            "bsrx.stream_half_frames", self.carry.half_frames_done
        )
        return sink.result()
