"""ARQ over a BER-parameterised bit pipe.

Two classic strategies, both assuming an out-of-band acknowledgement
path (the downlink the tag already listens to):

* :class:`StopAndWaitArq` — one frame in flight; simplest tag logic;
* :class:`SelectiveRepeatArq` — a window of frames per round, only the
  failed ones retransmitted; amortises the round-trip.

The channel model is the LScatter PHY's i.i.d. chip-error pipe (verified
by the IQ tests), so ARQ performance is fully determined by BER, frame
size and window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.link.framing import frame_payload, parse_frame
from repro.utils.rng import make_rng


class BitErrorChannel:
    """I.i.d. bit-flip channel at a fixed BER."""

    def __init__(self, ber, rng=None):
        if not 0.0 <= ber < 1.0:
            raise ValueError("ber must be in [0, 1)")
        self.ber = float(ber)
        self.rng = make_rng(rng)

    def transmit(self, bits):
        bits = np.asarray(bits, dtype=np.int8)
        if self.ber == 0.0:
            return bits.copy()
        flips = self.rng.random(len(bits)) < self.ber
        return bits ^ flips.astype(np.int8)


class ErasureChannel:
    """A bit pipe that occasionally erases a whole frame.

    Models the receiver's sync-loss erasures (see
    :mod:`repro.bsrx.demodulator`): with probability ``erasure_rate`` the
    frame's bits arrive as garbage — each bit flipped with probability
    one-half — so its CRC-16 fails and ARQ retransmits, exactly as it
    would after a marked-erased window.  Wraps any inner channel (the
    surviving frames still see the inner BER).
    """

    def __init__(self, channel, erasure_rate, rng=None):
        if not 0.0 <= erasure_rate <= 1.0:
            raise ValueError("erasure_rate must be in [0, 1]")
        self.channel = channel
        self.erasure_rate = float(erasure_rate)
        self.rng = make_rng(rng)
        #: Frames erased so far (for test/report assertions).
        self.erased_frames = 0

    def transmit(self, bits):
        out = self.channel.transmit(bits)
        if self.erasure_rate > 0.0 and self.rng.random() < self.erasure_rate:
            self.erased_frames += 1
            garbage = (self.rng.random(len(out)) < 0.5).astype(np.int8)
            out = out ^ garbage
        return out


@dataclass
class ArqReport:
    """Delivery statistics of one ARQ run."""

    strategy: str
    payload_bits: int
    frames_sent: int
    frames_delivered: int
    rounds: int
    on_air_bits: int

    @property
    def efficiency(self):
        """Useful payload bits per transmitted bit."""
        if self.on_air_bits == 0:
            return 0.0
        return self.payload_bits / self.on_air_bits

    @property
    def retransmission_overhead(self):
        if self.frames_delivered == 0:
            return float("inf")
        return self.frames_sent / self.frames_delivered - 1.0


def _chunk(payload, mtu_bits):
    payload = np.asarray(payload, dtype=np.int8)
    return [
        payload[i : i + mtu_bits] for i in range(0, len(payload), int(mtu_bits))
    ]


class StopAndWaitArq:
    """One frame in flight, retransmit until acknowledged."""

    name = "stop-and-wait"

    def __init__(self, mtu_bits=1024, max_retries=50):
        self.mtu_bits = int(mtu_bits)
        self.max_retries = int(max_retries)

    def deliver(self, payload, channel):
        chunks = _chunk(payload, self.mtu_bits)
        received = []
        frames_sent = 0
        rounds = 0
        on_air = 0
        for sequence, chunk in enumerate(chunks):
            bits = frame_payload(sequence & 0xFFFF, chunk)
            for _attempt in range(self.max_retries):
                frames_sent += 1
                rounds += 1
                on_air += len(bits)
                frame = parse_frame(channel.transmit(bits))
                if frame.valid and frame.sequence == (sequence & 0xFFFF):
                    received.append(frame.payload)
                    break
            else:
                raise RuntimeError(f"frame {sequence} undeliverable")
        recovered = (
            np.concatenate(received) if received else np.zeros(0, np.int8)
        )
        return recovered, ArqReport(
            strategy=self.name,
            payload_bits=len(np.asarray(payload)),
            frames_sent=frames_sent,
            frames_delivered=len(chunks),
            rounds=rounds,
            on_air_bits=on_air,
        )


class SelectiveRepeatArq:
    """Window of frames per round; only failures retransmit."""

    name = "selective-repeat"

    def __init__(self, mtu_bits=1024, window=16, max_rounds=200):
        self.mtu_bits = int(mtu_bits)
        self.window = int(window)
        self.max_rounds = int(max_rounds)

    def deliver(self, payload, channel):
        chunks = _chunk(payload, self.mtu_bits)
        pending = {seq: chunk for seq, chunk in enumerate(chunks)}
        received = {}
        frames_sent = 0
        rounds = 0
        on_air = 0
        while pending:
            rounds += 1
            if rounds > self.max_rounds:
                raise RuntimeError("window never drained")
            batch = sorted(pending)[: self.window]
            for sequence in batch:
                bits = frame_payload(sequence & 0xFFFF, pending[sequence])
                frames_sent += 1
                on_air += len(bits)
                frame = parse_frame(channel.transmit(bits))
                if frame.valid and frame.sequence == (sequence & 0xFFFF):
                    received[sequence] = frame.payload
                    del pending[sequence]
        recovered = (
            np.concatenate([received[s] for s in sorted(received)])
            if received
            else np.zeros(0, np.int8)
        )
        return recovered, ArqReport(
            strategy=self.name,
            payload_bits=len(np.asarray(payload)),
            frames_sent=frames_sent,
            frames_delivered=len(chunks),
            rounds=rounds,
            on_air_bits=on_air,
        )
