"""Tail-biting convolutional code (36.212 §5.1.3.1) with Viterbi decoding.

Rate 1/3, constraint length 7, generators (133, 171, 165) octal.  The
encoder is tail-biting: the shift register starts loaded with the last six
message bits, so the start and end states coincide and no tail bits are
transmitted.

Performance notes.  The encoder is a vectorised circular XOR (tail-biting
makes every output a cyclic convolution of the message with the generator
taps).  The decoder is a numpy Viterbi over the 64 states, batched over
transport blocks of equal length — a 20 MHz LTE frame decodes its ten
subframes in one trellis sweep.  Tail-biting is handled with a wrap
margin: the received LLRs are extended circularly by ``wrap_margin`` steps
on each side so the survivor paths converge onto the circular trellis
before the bits that are kept.
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

#: Steps of circular extension on each side of the trellis; ~14 constraint
#: lengths, ample for survivor-path convergence.
DEFAULT_WRAP_MARGIN = 96


def _build_tables():
    """Precompute next-state and output tables for every (state, input)."""
    next_state = np.zeros((_N_STATES, 2), dtype=np.int64)
    outputs = np.zeros((_N_STATES, 2, CODE_RATE_INVERSE), dtype=np.int8)
    for state in range(_N_STATES):
        for bit in (0, 1):
            register = (bit << (CONSTRAINT_LENGTH - 1)) | state
            next_state[state, bit] = register >> 1
            for g_index, g in enumerate(_GENERATORS):
                outputs[state, bit, g_index] = bin(register & g).count("1") & 1
    return next_state, outputs


_NEXT_STATE, _OUTPUTS = _build_tables()


def _predecessor_table():
    """(new_state, candidate) -> (previous_state, input_bit)."""
    table = np.zeros((_N_STATES, 2, 2), dtype=np.int64)
    counts = np.zeros(_N_STATES, dtype=np.int64)
    for state in range(_N_STATES):
        for bit in (0, 1):
            new = _NEXT_STATE[state, bit]
            table[new, counts[new]] = (state, bit)
            counts[new] += 1
    assert np.all(counts == 2), "trellis must have exactly two predecessors"
    return table


_PREDECESSORS = _predecessor_table()
_PREV_STATE = _PREDECESSORS[:, :, 0]  # (64, 2)
_PREV_INPUT = _PREDECESSORS[:, :, 1]  # (64, 2)

#: Branch correlation signs, flattened to (128, 3) over (state*2 + input).
_SIGNS_FLAT = (1.0 - 2.0 * _OUTPUTS.astype(float)).reshape(-1, CODE_RATE_INVERSE)


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
    """Decode several blocks, batching equal-length blocks into one sweep."""
    if len(llrs_list) != len(n_bits_list):
        raise ValueError("need one bit count per LLR block")
    groups = {}
    for index, (llrs, n_bits) in enumerate(zip(llrs_list, n_bits_list)):
        groups.setdefault(int(n_bits), []).append((index, np.asarray(llrs, float)))
    results = [None] * len(llrs_list)
    for n_bits, members in groups.items():
        batch = np.stack([llrs for _, llrs in members])
        decoded = _decode_batch(batch.reshape(len(members), n_bits, 3), wrap_margin)
        for row, (index, _) in enumerate(members):
            results[index] = decoded[row]
    return results


def _decode_batch(llrs, wrap_margin):
    """Viterbi over a (B, n, 3) LLR batch of tail-biting blocks."""
    n_blocks, n_bits, _ = llrs.shape
    margin = min(int(wrap_margin), n_bits)
    extended = np.concatenate(
        [llrs[:, n_bits - margin :], llrs, llrs[:, :margin]], axis=1
    )
    n_steps = extended.shape[1]

    metrics = np.zeros((n_blocks, _N_STATES))
    decisions = np.empty((n_steps, n_blocks, _N_STATES), dtype=np.int8)

    for step in range(n_steps):
        # (B, 128) branch correlations -> (B, 64, 2) per (state, input).
        branch = (extended[:, step] @ _SIGNS_FLAT.T).reshape(
            n_blocks, _N_STATES, 2
        )
        # Candidates arriving at each new state from its two predecessors:
        # indexing with the (64, 2) predecessor tables broadcasts over B.
        cand = metrics[:, _PREV_STATE] + branch[:, _PREV_STATE, _PREV_INPUT]
        choice = np.argmax(cand, axis=2)
        metrics = np.take_along_axis(cand, choice[:, :, None], axis=2)[:, :, 0]
        decisions[step] = choice
        metrics -= metrics.max(axis=1, keepdims=True)

    # Traceback, vectorised over the batch.  The decision stored at a step
    # selects the transition *into* each state, whose input bit is that
    # step's message bit.
    state = np.argmax(metrics, axis=1)
    hard = np.empty((n_blocks, n_steps), dtype=np.int8)
    rows = np.arange(n_blocks)
    for step in range(n_steps - 1, -1, -1):
        choice = decisions[step, rows, state]
        hard[:, step] = _PREV_INPUT[state, choice]
        state = _PREV_STATE[state, choice]
    return [hard[b, margin : margin + n_bits].astype(np.int8) for b in range(n_blocks)]
