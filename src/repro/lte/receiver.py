"""Full LTE downlink receiver: the simulated UE.

Decodes frame-aligned captures end to end — OFDM demodulation, CRS channel
estimation, one-tap equalisation, soft demapping, descrambling and rate
recovery per frame, then one Viterbi sweep over every transport block of
the capture and a CRC check per block — and reports throughput as
*transport blocks that pass CRC*, which is exactly the paper's notion of
LTE throughput in the Fig. 32 impact experiment.

Scheduling knowledge (modulation, code rate, transport-block sizing) comes
from the :class:`~repro.lte.frame.CellConfig`, standing in for the PDCCH,
through the same :func:`~repro.lte.frame.transport_plan` the transmitter
maps with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lte import coding
from repro.lte.channel_est import estimate_channel
from repro.lte.frame import CellConfig, transport_plan
from repro.lte.modulation import demodulate_llr
from repro.lte.ofdm import demodulate_frame
from repro.lte.params import LteParams, SUBFRAMES_PER_FRAME, FRAME_SECONDS
from repro.obs.trace import span


@dataclass
class SubframeResult:
    """Decode outcome for one transport block."""

    frame: int
    subframe: int
    crc_ok: bool
    payload_bits: int
    decoded: np.ndarray


@dataclass
class LteDecodeResult:
    """Aggregate decode outcome over a capture."""

    subframes: list = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def throughput_bps(self):
        """Bits of CRC-passing transport blocks per second of capture."""
        good = sum(sf.payload_bits for sf in self.subframes if sf.crc_ok)
        if self.duration_seconds <= 0:
            return 0.0
        return good / self.duration_seconds

    @property
    def block_error_rate(self):
        if not self.subframes:
            return float("nan")
        bad = sum(1 for sf in self.subframes if not sf.crc_ok)
        return bad / len(self.subframes)


class LteReceiver:
    """Decode frame-aligned IQ captures for a known cell configuration."""

    def __init__(self, params, cell=None):
        self.params = params if isinstance(params, LteParams) else LteParams.from_bandwidth(params)
        self.cell = cell or CellConfig()
        self._plan = transport_plan(self.params, self.cell)

    def decode_mib(self, samples):
        """Decode the MIB from one frame of samples (PBCH bootstrap).

        Returns ``(Mib or None, crc_ok)``.  A real UE runs this right
        after cell search to learn the bandwidth and frame number.
        """
        from repro.lte.pbch import decode_mib, pbch_positions

        observed = demodulate_frame(self.params, samples)
        estimate = estimate_channel(observed, self.cell.cell_id, self.params)
        equalized = estimate.equalize(observed)
        chunks = []
        for slot, sym, cols in pbch_positions(self.params, self.cell.cell_id):
            row = slot * 7 + sym
            chunks.append(equalized[row, cols])
        symbols = np.concatenate(chunks)
        return decode_mib(
            symbols, self.params, self.cell.cell_id, estimate.noise_variance
        )

    def _demap_frame(self, samples):
        """Demap one frame down to soft coded bits.

        Returns ``(softs, sizes)``: each subframe's rate-recovered LLR block
        and its message length (transport block plus CRC), in subframe
        order.
        """
        observed = demodulate_frame(self.params, samples)
        with span("lte.channel_est"):
            estimate = estimate_channel(observed, self.cell.cell_id, self.params)
            equalized = estimate.equalize(observed)

        # Post-equalisation noise variance per RE: sigma^2 / |H|^2.
        re_noise = estimate.noise_variance / estimate.gain_power

        softs = []
        sizes = []
        with span("lte.demap"):
            for plan in self._plan:
                symbols = equalized[plan.rows, plan.cols]
                noise = re_noise[plan.rows, plan.cols]
                llrs = demodulate_llr(symbols, self.cell.modulation, noise)
                llrs = coding.descramble_llrs(llrs, plan.c_init)
                n_bits = plan.tb_size + 24  # transport block plus CRC-24A
                softs.append(coding.rate_recover(llrs, 3 * n_bits))
                sizes.append(n_bits)
        return softs, sizes

    def decode(self, samples):
        """Decode a frame-aligned capture of one or more frames.

        Every frame is demapped first; then one Viterbi call decodes the
        transport blocks of the whole capture in a single trellis sweep,
        and each block's CRC is checked.  ``result.subframes`` is in
        ``(frame, subframe)`` order.
        """
        samples = np.asarray(samples, dtype=complex)
        n = self.params.samples_per_frame
        n_frames = len(samples) // n
        if n_frames < 1:
            raise ValueError("capture shorter than one frame")
        result = LteDecodeResult(duration_seconds=n_frames * FRAME_SECONDS)
        softs = []
        sizes = []
        for f in range(n_frames):
            frame_softs, frame_sizes = self._demap_frame(samples[f * n : (f + 1) * n])
            softs.extend(frame_softs)
            sizes.extend(frame_sizes)

        with span("lte.viterbi"):
            decoded_blocks = coding.viterbi_decode_many(softs, sizes)
        for index, decoded in enumerate(decoded_blocks):
            payload, ok = coding.crc_check(decoded, "crc24a")
            frame, subframe = divmod(index, SUBFRAMES_PER_FRAME)
            result.subframes.append(
                SubframeResult(
                    frame=frame,
                    subframe=subframe,
                    crc_ok=ok,
                    payload_bits=len(payload),
                    decoded=payload,
                )
            )
        return result
