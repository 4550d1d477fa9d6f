"""The paper's chip scheme as the default registered substrate.

Pure delegation: the schedule comes from
:meth:`repro.tag.controller.TagController.build_schedule`, demodulation
from :class:`repro.bsrx.demodulator.BackscatterDemodulator` (or the
chunked :class:`repro.bsrx.streaming.StreamingDemodulator`), accounting
from :func:`repro.core.metrics.measure_link` — the exact pre-refactor
code paths, none of which draw RNG, so a default config's output is
bit-identical to the pre-substrate pipeline.
"""

from __future__ import annotations

from repro.substrates.base import Substrate, register


@register
class ChipSubstrate(Substrate):
    """LScatter ±1 chips on every non-sync downlink symbol."""

    name = "chip"
    ambient_kind = "lte-downlink"
    supports_decoded_reference = True
    supports_circuit_sync = True
    supports_streaming = True
    supports_batch = True

    def build_schedule(
        self,
        timing,
        n_samples,
        payload_bits,
        owned_half_frames=None,
        drift_per_half_frame=0.0,
    ):
        return self.system.controller.build_schedule(
            timing,
            n_samples,
            payload_bits,
            owned_half_frames=owned_half_frames,
            drift_per_half_frame=drift_per_half_frame,
        )

    def demodulate(self, front):
        chunk = self.config.demod_chunk_half_frames
        if chunk:
            from repro.bsrx.streaming import StreamingDemodulator

            streamer = StreamingDemodulator(
                self.params,
                chunk_half_frames=chunk,
                erasure_threshold=self.system.demodulator.erasure_threshold,
                snr_gate_db=self.system.demodulator.snr_gate_db,
            )
            return streamer.demodulate(
                front.shifted_rx, front.reference, front.half_starts
            )
        return self.system.demodulator.demodulate(
            front.shifted_rx, front.reference, front.half_starts
        )
