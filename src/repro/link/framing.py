"""Link-layer framing: sequence number + length + payload + CRC-16."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lte.coding import crc_attach, crc_check
from repro.utils.dsp import bits_to_int, int_to_bits

#: Header: 16-bit sequence number + 16-bit payload length.
FRAME_HEADER_BITS = 32

#: CRC-16 trailer.
FRAME_CRC_BITS = 16


@dataclass(frozen=True)
class LinkFrame:
    """A parsed link-layer frame."""

    sequence: int
    payload: np.ndarray
    valid: bool


def frame_payload(sequence, payload):
    """Build the bit stream of one frame."""
    payload = np.asarray(payload, dtype=np.int8)
    if not 0 <= int(sequence) < 1 << 16:
        raise ValueError("sequence must fit 16 bits")
    if len(payload) >= 1 << 16:
        raise ValueError("payload too long for the 16-bit length field")
    header = np.concatenate(
        [int_to_bits(int(sequence), 16), int_to_bits(len(payload), 16)]
    )
    return crc_attach(np.concatenate([header, payload]), "crc16")


def parse_frame(bits):
    """Parse (and CRC-check) one frame; returns a :class:`LinkFrame`.

    Invalid frames come back with ``valid=False`` and best-effort fields.
    """
    bits = np.asarray(bits, dtype=np.int8)
    if len(bits) < FRAME_HEADER_BITS + FRAME_CRC_BITS:
        return LinkFrame(sequence=-1, payload=np.zeros(0, np.int8), valid=False)
    body, ok = crc_check(bits, "crc16")
    sequence = bits_to_int(body[:16])
    length = bits_to_int(body[16:32])
    payload = body[32:]
    if ok and length != len(payload):
        ok = False
    return LinkFrame(sequence=sequence, payload=payload, valid=bool(ok))
