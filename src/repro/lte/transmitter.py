"""The simulated eNodeB: turns frames into a continuous IQ stream.

LTE downlink traffic is continuous — the property the whole paper rests on
— so the transmitter emits back-to-back frames with no gaps.  The returned
:class:`LteCapture` keeps the genie data (grids, payloads) that evaluation
code uses to compute error rates without re-deriving ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lte.frame import CellConfig, FrameBuilder
from repro.lte.ofdm import modulate_frame
from repro.lte.params import LteParams
from repro.obs.trace import span
from repro.utils.rng import make_rng


@dataclass
class LteCapture:
    """IQ samples plus ground truth for one contiguous transmission."""

    params: LteParams
    cell: CellConfig
    samples: np.ndarray
    frames: list = field(default_factory=list)

    @property
    def duration_seconds(self):
        return len(self.samples) / self.params.sample_rate_hz


class LteTransmitter:
    """Generate continuous standard-shaped LTE downlink IQ."""

    def __init__(self, bandwidth_mhz=20.0, cell=None, rng=None):
        self.params = LteParams.from_bandwidth(bandwidth_mhz)
        self.cell = cell or CellConfig()
        self.rng = make_rng(rng)
        self._builder = FrameBuilder(self.params, self.cell, self.rng)

    def transmit(self, n_frames=1):
        """Build ``n_frames`` back-to-back frames and their IQ stream.

        >>> cap = LteTransmitter(1.4, rng=0).transmit(1)
        >>> cap.samples.shape[0] == cap.params.samples_per_frame
        True
        """
        if n_frames < 1:
            raise ValueError("need at least one frame")
        frames = []
        chunks = []
        with span("lte.transmit") as sp:
            for n in range(int(n_frames)):
                frame = self._builder.build(frame_number=n)
                frames.append(frame)
                chunks.append(modulate_frame(frame.grid))
            samples = np.concatenate(chunks)
            sp.set(n_frames=int(n_frames), n_samples=len(samples))
        return LteCapture(
            params=self.params, cell=self.cell, samples=samples, frames=frames
        )
