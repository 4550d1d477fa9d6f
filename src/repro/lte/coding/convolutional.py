"""Tail-biting convolutional code (36.212 §5.1.3.1) with Viterbi decoding.

Rate 1/3, constraint length 7, generators (133, 171, 165) octal.  The
encoder is tail-biting: the shift register starts loaded with the last six
message bits, so the start and end states coincide and no tail bits are
transmitted.

Performance notes.  The encoder is a vectorised circular XOR (tail-biting
makes every output a cyclic convolution of the message with the generator
taps).  The decoder is a numpy Viterbi over the 64 states that decodes
every block it is given, whatever their lengths, in one trellis sweep: an
LTE receiver hands it all the transport blocks of a capture at once.
Tail-biting is handled with a wrap margin: the received LLRs are extended
circularly by ``wrap_margin`` steps on each side so the survivor paths
converge onto the circular trellis before the bits that are kept.

Each step is a butterfly add-compare-select over a ``(2, 32, n_blocks)``
array of path metrics (even states, then odd states), and blocks of
different lengths share the sweep by being left-padded with zero LLRs.
The decisions equal those of the textbook ``argmax`` trellis bit for bit;
DESIGN.md §10 ("One-sweep Viterbi") gives the argument.
"""

from __future__ import annotations

import numpy as np

#: Constraint length K.
CONSTRAINT_LENGTH = 7

#: 1/R — three coded bits per message bit.
CODE_RATE_INVERSE = 3

#: Generator polynomials, octal 133/171/165, as K-bit taps (MSB = newest bit).
_GENERATORS = (0o133, 0o171, 0o165)

_N_STATES = 1 << (CONSTRAINT_LENGTH - 1)
_HALF = _N_STATES // 2

#: Steps of circular extension on each side of the trellis; ~14 constraint
#: lengths, ample for survivor-path convergence.
DEFAULT_WRAP_MARGIN = 96

#: Trellis steps whose branch values are built, and whose decisions are
#: packed, in one go; bounds the sweep's scratch buffers.
_CHUNK_STEPS = 128


def _butterfly_patterns():
    """Sign patterns of the 32 butterflies' branch correlations.

    Butterfly ``k`` joins old states ``2k`` and ``2k + 1`` to new states
    ``k`` (input 0) and ``k + 32`` (input 1).  Every generator taps both
    the input bit and the oldest register bit, so flipping either flips
    all three coded bits: the branches ``2k -> k``, ``2k+1 -> k``,
    ``2k -> k+32`` and ``2k+1 -> k+32`` correlate to ``+m``, ``-m``,
    ``-m`` and ``+m``, with ``m`` the correlation of ``2k -> k``.

    Returns ``(signs, pattern)``: ``signs[j, p]`` is the sign of coded bit
    ``j`` in pattern ``p`` (all eight, shape ``(3, 8, 1)``) and
    ``pattern[k]`` is the pattern of butterfly ``k``'s ``m``.
    """
    newest = 1 << (CONSTRAINT_LENGTH - 1)
    assert all(g & newest and g & 1 for g in _GENERATORS), "butterfly symmetry"
    shifts = np.arange(CODE_RATE_INVERSE)[::-1]
    signs = 1.0 - 2.0 * ((np.arange(8)[None, :] >> shifts[:, None]) & 1)
    pattern = np.zeros(_HALF, dtype=np.intp)
    for k in range(_HALF):
        for g in _GENERATORS:  # old state 2k, input 0: register k << 1
            pattern[k] = (pattern[k] << 1) | (bin((k << 1) & g).count("1") & 1)
    return signs[:, :, None], pattern


_PATTERN_SIGNS, _BUTTERFLY_PATTERN = _butterfly_patterns()


def conv_encode(bits):
    """Encode a message; returns ``3 * len(bits)`` coded bits.

    Coded bits are interleaved per step: d0(0), d1(0), d2(0), d0(1), ...
    Tail-biting makes each stream a circular convolution, so the whole
    encoder is seven rolled XORs.

    >>> coded = conv_encode(np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.int8))
    >>> len(coded)
    21
    """
    bits = np.asarray(bits, dtype=np.int8)
    if len(bits) < CONSTRAINT_LENGTH - 1:
        raise ValueError("message shorter than the encoder memory")
    coded = np.empty((len(bits), CODE_RATE_INVERSE), dtype=np.int8)
    for g_index, g in enumerate(_GENERATORS):
        acc = np.zeros(len(bits), dtype=np.int8)
        for delay in range(CONSTRAINT_LENGTH):
            if (g >> (CONSTRAINT_LENGTH - 1 - delay)) & 1:
                acc ^= np.roll(bits, delay)
        coded[:, g_index] = acc
    return coded.reshape(-1)


def viterbi_decode(llrs, n_bits, wrap_margin=DEFAULT_WRAP_MARGIN):
    """Decode ``n_bits`` message bits from coded-bit LLRs.

    ``llrs`` has length ``3 * n_bits``; positive LLR means the coded bit is
    more likely 0.  Erased (punctured) positions should carry LLR 0.
    """
    return viterbi_decode_many([llrs], [n_bits], wrap_margin)[0]


def viterbi_decode_many(llrs_list, n_bits_list, wrap_margin=DEFAULT_WRAP_MARGIN):
    """Decode several blocks, of any lengths, in one trellis sweep.

    Raises ``ValueError`` naming the block when its LLR count is not
    ``3 * n_bits`` or it holds a non-finite LLR.
    """
    if len(llrs_list) != len(n_bits_list):
        raise ValueError("need one bit count per LLR block")
    blocks = [
        _checked_block(index, llrs, int(n_bits))
        for index, (llrs, n_bits) in enumerate(zip(llrs_list, n_bits_list))
    ]
    margins = [min(int(wrap_margin), len(block)) for block in blocks]
    lengths = [len(block) + 2 * margin for block, margin in zip(blocks, margins)]
    n_steps = max(lengths, default=0)

    # Step-major (n_steps, 3, n_blocks) LLRs.  Each circularly extended
    # block is right-aligned: the zero LLRs in front of it keep its path
    # metrics at 0 until its first step, as in a sweep of its own.
    steps = np.zeros((n_steps, CODE_RATE_INVERSE, len(blocks)))
    for b, (block, margin, length) in enumerate(zip(blocks, margins, lengths)):
        n_bits = len(block)
        steps[n_steps - length :, :, b] = np.concatenate(
            [block[n_bits - margin :], block, block[:margin]]
        )

    words, final = _sweep(steps)
    return [
        _traceback(words[n_steps - length + margin :, b], final[b], len(block))
        for b, (block, margin, length) in enumerate(zip(blocks, margins, lengths))
    ]


def _checked_block(index, llrs, n_bits):
    """Block ``index``'s LLRs as an ``(n_bits, 3)`` array, or ``ValueError``."""
    llrs = np.asarray(llrs, dtype=float).reshape(-1)
    if n_bits < 0 or len(llrs) != CODE_RATE_INVERSE * n_bits:
        raise ValueError(
            f"block {index}: expected {CODE_RATE_INVERSE * n_bits} LLRs "
            f"for {n_bits} bits, got {len(llrs)}"
        )
    finite = np.isfinite(llrs)
    if not finite.all():
        position = int(np.argmin(finite))
        raise ValueError(
            f"block {index}: LLR {position} is {llrs[position]}, not finite"
        )
    return llrs.reshape(n_bits, CODE_RATE_INVERSE)


def _sweep(steps):
    """Add-compare-select over ``(n_steps, 3, n_blocks)`` LLRs.

    Returns the packed decisions, one ``uint64`` per (step, block) whose
    bit ``s`` is set when new state ``s`` came from its odd predecessor,
    and each block's final state: the first state of best metric.
    """
    n_steps, _, n_blocks = steps.shape
    # metrics[i][c, j] is the path metric of state 2j + c.  Two buffers
    # alternate; a step reads one and writes new state b*32 + 2j' + c,
    # held in cand_pairs[b, j', c], through the other's shuffled view.
    metrics = np.zeros((2, 2, _HALF, n_blocks))
    shuffled = metrics.reshape(2, 2, 2, _HALF // 2, n_blocks).transpose(0, 2, 3, 1, 4)
    buffers = [(tuple(metrics[0]), shuffled[1]), (tuple(metrics[1]), shuffled[0])]
    cand_even = np.empty((2, _HALF, n_blocks))
    cand_odd = np.empty_like(cand_even)
    (to_low, to_high), (odd_to_low, odd_to_high) = cand_even, cand_odd
    cand_rows = cand_even.reshape(_N_STATES, n_blocks)
    cand_pairs = cand_even.reshape(2, _HALF // 2, 2, n_blocks)
    peak = np.empty(n_blocks)
    corr = np.empty((_CHUNK_STEPS, _PATTERN_SIGNS.shape[1], n_blocks))
    branch = np.empty((_CHUNK_STEPS, _HALF, n_blocks))
    decisions = np.empty((_CHUNK_STEPS, 2, _HALF, n_blocks), dtype=bool)
    words = np.empty((n_steps, n_blocks), dtype=np.uint64)

    current = 0
    for lo in range(0, n_steps, _CHUNK_STEPS):
        n_chunk = min(_CHUNK_STEPS, n_steps - lo)
        llrs = steps[lo : lo + n_chunk, :, None, :]
        # Every sign pattern's correlation, summed left to right as the
        # three-term dot product ``llrs @ signs`` is: each product is exact.
        np.multiply(_PATTERN_SIGNS[0], llrs[:, 0], out=corr[:n_chunk])
        corr[:n_chunk] += _PATTERN_SIGNS[1] * llrs[:, 1]
        corr[:n_chunk] += _PATTERN_SIGNS[2] * llrs[:, 2]
        np.take(corr[:n_chunk], _BUTTERFLY_PATTERN, axis=1, out=branch[:n_chunk])
        for m, decided in zip(branch[:n_chunk], decisions[:n_chunk]):
            (even, odd), target = buffers[current]
            np.add(even, m, out=to_low)  # 2k -> k
            np.subtract(even, m, out=to_high)  # 2k -> k + 32
            np.subtract(odd, m, out=odd_to_low)  # 2k+1 -> k
            np.add(odd, m, out=odd_to_high)  # 2k+1 -> k + 32
            # First wins: the odd predecessor only when strictly better.
            np.greater(cand_odd, cand_even, out=decided)
            np.maximum(cand_even, cand_odd, out=cand_even)
            np.maximum.reduce(cand_rows, axis=0, out=peak)
            np.subtract(cand_pairs, peak, out=target)
            current ^= 1
        by_block = decisions[:n_chunk].reshape(n_chunk, _N_STATES, n_blocks)
        by_block = np.ascontiguousarray(by_block.transpose(0, 2, 1))
        packed = np.packbits(by_block, axis=-1, bitorder="little")
        words[lo : lo + n_chunk] = packed.view("<u8")[:, :, 0]

    final = metrics[current].transpose(1, 0, 2).reshape(_N_STATES, n_blocks)
    return words, np.argmax(final, axis=0)


def _traceback(words, state, n_bits):
    """Message bits from a block's decisions, tracing back from ``state``.

    ``words`` runs from the block's first kept step to the end of the
    sweep; the bit of a step is the input bit of its state, ``state >> 5``.
    """
    words = words.tolist()
    state = int(state)
    hard = bytearray(len(words))
    for step in range(len(words) - 1, -1, -1):
        hard[step] = state >> 5
        state = ((state & (_HALF - 1)) << 1) | ((words[step] >> state) & 1)
    return np.frombuffer(hard, dtype=np.int8)[:n_bits].copy()
