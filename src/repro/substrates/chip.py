"""The paper's chip scheme as the default registered substrate.

Pure delegation: the schedule comes from
:meth:`repro.tag.controller.TagController.build_schedule`, demodulation
from :class:`repro.bsrx.demodulator.BackscatterDemodulator`, accounting
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
        return self.system.demodulator.demodulate(
            front.shifted_rx, front.reference, front.half_starts
        )
