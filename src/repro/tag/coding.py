"""Lightweight tag-side channel coding for the backscatter payload.

The paper transmits raw chips; its future-work discussion (and every
deployment conversation about backscatter) asks what a few gates of
encoder buy at range.  Two codes a Flash-frozen AGLN250 can afford:

* **Hamming(7,4)** — corrects one error per 7-chip block, syndrome
  decoding at the UE (soft input optional);
* **repetition-3** — majority voting, the cheapest possible code.

Both combine with a block interleaver so a burst of weak ambient samples
does not wipe a whole codeword.  The closed-form coded-BER expressions
feed the link model's goodput ablation.
"""

from __future__ import annotations

import numpy as np

from scipy.special import comb

#: Hamming(7,4) generator matrix (systematic), bits as rows.
_G = np.array(
    [
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ],
    dtype=np.int8,
)

#: Parity-check matrix H (3 x 7) matching _G.
_H = np.array(
    [
        [1, 1, 0, 1, 1, 0, 0],
        [1, 0, 1, 1, 0, 1, 0],
        [0, 1, 1, 1, 0, 0, 1],
    ],
    dtype=np.int8,
)

#: Syndrome (as integer) -> error position in the 7-bit codeword.
_SYNDROME_TO_POSITION = {}
for _pos in range(7):
    _e = np.zeros(7, dtype=np.int8)
    _e[_pos] = 1
    _s = (_H @ _e) % 2
    _SYNDROME_TO_POSITION[int(_s[0]) * 4 + int(_s[1]) * 2 + int(_s[2])] = _pos


def hamming74_encode(bits):
    """Encode bits with Hamming(7,4); pads the tail with zeros.

    Returns ``(coded, original_length)``.
    """
    bits = np.asarray(bits, dtype=np.int8)
    pad = (-len(bits)) % 4
    padded = np.concatenate([bits, np.zeros(pad, dtype=np.int8)])
    blocks = padded.reshape(-1, 4)
    coded = (blocks @ _G) % 2
    return coded.astype(np.int8).reshape(-1), len(bits)


def hamming74_decode(coded, original_length):
    """Syndrome-decode Hamming(7,4) codewords back to the payload."""
    coded = np.asarray(coded, dtype=np.int8)
    if len(coded) % 7:
        raise ValueError("coded length must be a multiple of 7")
    blocks = coded.reshape(-1, 7).copy()
    syndromes = (blocks @ _H.T) % 2
    syndrome_ints = syndromes[:, 0] * 4 + syndromes[:, 1] * 2 + syndromes[:, 2]
    for row in np.flatnonzero(syndrome_ints):
        position = _SYNDROME_TO_POSITION.get(int(syndrome_ints[row]))
        if position is not None:
            blocks[row, position] ^= 1
    decoded = blocks[:, :4].reshape(-1)
    return decoded[: int(original_length)].astype(np.int8)


def repetition_encode(bits, factor=3):
    """Repeat every bit ``factor`` times."""
    bits = np.asarray(bits, dtype=np.int8)
    return np.repeat(bits, int(factor))


def repetition_decode(coded, factor=3):
    """Majority-vote a repetition code."""
    coded = np.asarray(coded, dtype=np.int8)
    factor = int(factor)
    if len(coded) % factor:
        raise ValueError("coded length must be a multiple of the factor")
    votes = coded.reshape(-1, factor).sum(axis=1)
    return (votes * 2 > factor).astype(np.int8)


def block_interleave(bits, depth):
    """Row-in/column-out block interleaver; pads with zeros.

    Returns ``(interleaved, original_length)``.
    """
    bits = np.asarray(bits, dtype=np.int8)
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be positive")
    pad = (-len(bits)) % depth
    padded = np.concatenate([bits, np.zeros(pad, dtype=np.int8)])
    matrix = padded.reshape(-1, depth)
    return matrix.T.reshape(-1), len(bits)


def block_deinterleave(bits, depth, original_length):
    """Invert :func:`block_interleave`."""
    bits = np.asarray(bits, dtype=np.int8)
    depth = int(depth)
    if len(bits) % depth:
        raise ValueError("length must be a multiple of the depth")
    matrix = bits.reshape(depth, -1)
    return matrix.T.reshape(-1)[: int(original_length)]


def hamming74_coded_ber(channel_ber):
    """Post-decoding BER of Hamming(7,4) on a BSC with ``channel_ber``.

    A block decodes wrong when 2+ of its 7 bits flip; a wrong block's
    4 data bits carry on average ~2 errors, i.e. data BER ~ half the
    block error rate.
    """
    p = np.asarray(channel_ber, dtype=float)
    # P(2+ flips) as a sum of non-negative terms: ``1 - P(0 or 1 flips)``
    # cancels catastrophically (and can go negative) for p below ~1e-9.
    block_error = np.zeros_like(p)
    for k in range(2, 8):
        block_error = block_error + comb(7, k) * p**k * (1 - p) ** (7 - k)
    return (0.5 * block_error)[()]


def repetition_coded_ber(channel_ber, factor=3):
    """Post-majority BER of a repetition code on a BSC."""
    p = np.asarray(channel_ber, dtype=float)
    factor = int(factor)
    majority = factor // 2 + 1
    out = np.zeros_like(p)
    for k in range(majority, factor + 1):
        out = out + comb(factor, k) * p**k * (1 - p) ** (factor - k)
    return out[()]
