"""Tail-biting convolutional code (36.212 §5.1.3.1) with Viterbi decoding.

Rate 1/3, constraint length 7, generators (133, 171, 165) octal.  The
encoder is tail-biting: the shift register starts loaded with the last six
message bits, so the start and end states coincide and no tail bits are
transmitted.

Performance notes.  Tail-biting makes every coded stream a cyclic
convolution of the message with one generator's taps, so the encoder XORs
slices of one copy of the message with its last six bits in front.

The decoder first tries the algebra.  Written as polynomials in the delay,
the first two generators have a0·g0 + a1·g1 = 1 over GF(2)[x] (derived
below by extended Euclid), so ``u = a0 ⊛ d0 ⊕ a1 ⊛ d1`` inverts the
encoder on the hard-decision streams d0, d1.  When the hard decisions of
a block already form a codeword (``conv_encode(u)`` equals all three
streams) and its LLRs hold no zero and span less than 2**30, ``u`` is the
block's answer, bit for bit the one the trellis would give (DESIGN.md §10,
"One-sweep Viterbi", has the argument).  The counter
``lte.viterbi_fast_blocks`` counts those blocks.

Every other block goes through a numpy Viterbi over the 64 states that
decodes them all, whatever their lengths, in one trellis sweep: an LTE
receiver hands it all the transport blocks of a capture at once.
Tail-biting is handled with a wrap margin: the received LLRs are extended
circularly by ``_WRAP_MARGIN`` steps on each side so the survivor paths
converge onto the circular trellis before the bits that are kept.

Each step is a butterfly add-compare-select over a ``(2, 32, n_blocks)``
array of path metrics (even states, then odd states), and blocks of
different lengths share the sweep by being left-padded with zero LLRs.
The decisions equal those of the textbook ``argmax`` trellis bit for bit;
DESIGN.md §10 ("One-sweep Viterbi") gives the argument.
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics as obs_metrics

#: Constraint length K.
CONSTRAINT_LENGTH = 7

#: 1/R — three coded bits per message bit.
CODE_RATE_INVERSE = 3

#: Generator polynomials, octal 133/171/165, as K-bit taps (MSB = newest bit).
_GENERATORS = (0o133, 0o171, 0o165)

#: Encoder memory: the register bits besides the input.
_MEMORY = CONSTRAINT_LENGTH - 1

_N_STATES = 1 << _MEMORY
_HALF = _N_STATES // 2

#: Steps of circular extension on each side of the trellis; ~14 constraint
#: lengths, ample for survivor-path convergence.
_WRAP_MARGIN = 96

#: The fast path needs min|LLR| above this fraction of max|LLR|, so the
#: sweep's rounding stays far below the gap it would have to close.
_LLR_SPAN_GUARD = 2.0**-30

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


def _delay_polynomial(g):
    """Generator ``g`` as a polynomial in the delay, held as an int: bit
    ``d`` (x^d) is the tap ``d`` steps back, bit ``K - 1 - d`` of ``g``."""
    return sum(1 << d for d in range(CONSTRAINT_LENGTH) if (g >> (_MEMORY - d)) & 1)


def _delays(poly):
    """Tap delays of a polynomial held as an int (bit ``d`` is x^d)."""
    return tuple(d for d in range(poly.bit_length()) if (poly >> d) & 1)


def _gf2_multiply(a, b):
    """Product of two GF(2)[x] polynomials held as ints."""
    product = 0
    for d in _delays(b):
        product ^= a << d
    return product


def _encoder_inverse():
    """Tap delays of ``a0, a1`` with ``a0·g0 + a1·g1 = 1`` over GF(2)[x].

    Extended Euclid on g0 and g1: every remainder ``r`` is kept as
    ``a·g0 + b·g1``, and the last nonzero one is 1 since the two are
    coprime.
    """
    g0, g1 = (_delay_polynomial(g) for g in _GENERATORS[:2])
    (r, a, b), (r_next, a_next, b_next) = (g0, 1, 0), (g1, 0, 1)
    while r_next:
        while r.bit_length() >= r_next.bit_length():
            shift = r.bit_length() - r_next.bit_length()
            r ^= r_next << shift
            a ^= a_next << shift
            b ^= b_next << shift
        (r, a, b), (r_next, a_next, b_next) = (r_next, a_next, b_next), (r, a, b)
    assert _gf2_multiply(a, g0) ^ _gf2_multiply(b, g1) == 1, "encoder inverse"
    assert max(a.bit_length(), b.bit_length()) <= CONSTRAINT_LENGTH, "taps fit the padding"
    return _delays(a), _delays(b)


#: Each generator's tap delays (0 = the input bit).
_GENERATOR_TAPS = tuple(_delays(_delay_polynomial(g)) for g in _GENERATORS)

#: Tap delays of a0 = x^2 + x^4 and a1 = 1 + x + x^2 + x^3 + x^4.
_INVERSE_TAPS = _encoder_inverse()


def _with_tail_in_front(bits):
    """``bits`` with its last six entries copied in front of it."""
    return np.concatenate([bits[len(bits) - _MEMORY :], bits])


def _cyclic_xor(padded, taps):
    """XOR of a message delayed by each of ``taps`` (at most six), circularly.

    ``padded`` is :func:`_with_tail_in_front` of the message, so the
    message delayed by ``d`` is the slice that starts ``d`` before it.
    """
    first, *rest = taps
    out = padded[_MEMORY - first : len(padded) - first].copy()
    for d in rest:
        out ^= padded[_MEMORY - d : len(padded) - d]
    return out


def conv_encode(bits):
    """Encode a message; returns ``3 * len(bits)`` coded bits.

    Coded bits are interleaved per step: d0(0), d1(0), d2(0), d0(1), ...
    Tail-biting makes each stream a circular convolution, so each stream
    is an XOR of slices of one circularly padded copy of the message.

    >>> coded = conv_encode(np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.int8))
    >>> len(coded)
    21
    """
    bits = np.asarray(bits, dtype=np.int8)
    if len(bits) < _MEMORY:
        raise ValueError("message shorter than the encoder memory")
    padded = _with_tail_in_front(bits)
    coded = np.empty((len(bits), CODE_RATE_INVERSE), dtype=np.int8)
    for g_index, taps in enumerate(_GENERATOR_TAPS):
        coded[:, g_index] = _cyclic_xor(padded, taps)
    return coded.reshape(-1)


def viterbi_decode(llrs, n_bits):
    """Decode ``n_bits`` message bits from coded-bit LLRs.

    ``llrs`` has length ``3 * n_bits``; positive LLR means the coded bit is
    more likely 0.  Erased (punctured) positions should carry LLR 0.
    """
    return viterbi_decode_many([llrs], [n_bits])[0]


def viterbi_decode_many(llrs_list, n_bits_list):
    """Decode several blocks, of any lengths; one trellis sweep at most.

    A block whose hard decisions already form a codeword, with no zero
    LLR and a bounded LLR span, is inverted algebraically; the rest share
    one sweep.  Results keep block order.  Raises ``ValueError`` naming
    the block when its LLR count is not ``3 * n_bits`` or it holds a
    non-finite LLR.
    """
    if len(llrs_list) != len(n_bits_list):
        raise ValueError("need one bit count per LLR block")
    blocks = [
        _checked_block(index, llrs, int(n_bits))
        for index, (llrs, n_bits) in enumerate(zip(llrs_list, n_bits_list))
    ]
    decoded = [_codeword_message(block) for block in blocks]
    swept = [b for b, message in enumerate(decoded) if message is None]
    obs_metrics.counter_inc("lte.viterbi_fast_blocks", len(blocks) - len(swept))
    if swept:
        messages = _decode_swept([blocks[b] for b in swept])
        for b, message in zip(swept, messages):
            decoded[b] = message
    return decoded


def _codeword_message(block):
    """The message of an ``(n_bits, 3)`` LLR block whose hard decisions
    form a codeword, or ``None`` when the block needs the trellis.

    The block qualifies only with ``n_bits >= 6`` (the encoder's domain)
    and ``min|LLR| > 2**-30 * max|LLR|``, which also rules out a zero
    LLR: then the codeword is the unique ML answer and the sweep returns
    it exactly (DESIGN.md §10).
    """
    if len(block) < _MEMORY:
        return None
    magnitudes = np.abs(block)
    if magnitudes.min() <= _LLR_SPAN_GUARD * magnitudes.max():
        return None
    hard = (block < 0).view(np.int8)
    a0_taps, a1_taps = _INVERSE_TAPS
    message = _cyclic_xor(_with_tail_in_front(hard[:, 0]), a0_taps)
    message ^= _cyclic_xor(_with_tail_in_front(hard[:, 1]), a1_taps)
    if not np.array_equal(conv_encode(message), hard.reshape(-1)):
        return None
    return message


def _decode_swept(blocks):
    """Decode ``(n_bits, 3)`` LLR blocks in one wrap-margin trellis sweep."""
    margins = [min(_WRAP_MARGIN, len(block)) for block in blocks]
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
