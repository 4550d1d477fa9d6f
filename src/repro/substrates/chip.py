"""The paper's chip scheme as the default substrate.

Pure delegation: the schedule comes from
:meth:`repro.tag.controller.TagController.build_schedule`, demodulation
from :class:`repro.bsrx.demodulator.BackscatterDemodulator`, accounting
from :func:`repro.core.metrics.measure_link` — the exact pre-refactor
code paths, none of which draw RNG, so a default config's output is
bit-identical to the pre-substrate pipeline.
"""

from __future__ import annotations

from repro.substrates.base import Substrate


class ChipSubstrate(Substrate):
    """LScatter ±1 chips on every non-sync downlink symbol."""

    name = "chip"

    def build_schedule(self, *args, **kwargs):
        return self.system.controller.build_schedule(*args, **kwargs)

    def demodulate(self, front):
        return self.system.demodulator.demodulate(
            front.shifted_rx, front.reference, front.half_starts
        )
