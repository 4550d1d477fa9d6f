"""802.11a/g bit pipeline: scrambling, BCC, puncturing, interleaving.

Rate-1/2 convolutional code, K = 7, generators (133, 171) octal, zero
tail; optional puncturing to rate 3/4; per-symbol block interleaver.
"""

from __future__ import annotations

import numpy as np

_G0 = 0o133
_G1 = 0o171
_K = 7
_N_STATES = 64

#: The scrambler's initial 7-bit state.
SCRAMBLER_SEED = 0x5D


def scramble(bits):
    """802.11 frame-synchronous scrambler (x^7 + x^4 + 1), seeded with
    :data:`SCRAMBLER_SEED`.

    Self-inverse: applying it twice restores the input.
    """
    bits = np.asarray(bits, dtype=np.int8)
    state = SCRAMBLER_SEED
    out = np.empty_like(bits)
    for i, b in enumerate(bits):
        feedback = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | feedback) & 0x7F
        out[i] = b ^ feedback
    return out


def _build_tables():
    next_state = np.zeros((_N_STATES, 2), dtype=np.int64)
    outputs = np.zeros((_N_STATES, 2, 2), dtype=np.int8)
    for state in range(_N_STATES):
        for bit in (0, 1):
            register = (bit << (_K - 1)) | state
            next_state[state, bit] = register >> 1
            outputs[state, bit, 0] = bin(register & _G0).count("1") & 1
            outputs[state, bit, 1] = bin(register & _G1).count("1") & 1
    return next_state, outputs


_NEXT_STATE, _OUTPUTS = _build_tables()
_SIGNS = (1.0 - 2.0 * _OUTPUTS.astype(float)).reshape(-1, 2)


def _predecessors():
    table = np.zeros((_N_STATES, 2, 2), dtype=np.int64)
    counts = np.zeros(_N_STATES, dtype=np.int64)
    for state in range(_N_STATES):
        for bit in (0, 1):
            new = _NEXT_STATE[state, bit]
            table[new, counts[new]] = (state, bit)
            counts[new] += 1
    return table


_PRED = _predecessors()
_PREV_STATE = _PRED[:, :, 0]
_PREV_INPUT = _PRED[:, :, 1]


def conv_encode_half(bits):
    """Rate-1/2 encode with zero start state (caller appends tail bits)."""
    bits = np.asarray(bits, dtype=np.int64)
    coded = np.empty((len(bits), 2), dtype=np.int8)
    state = 0
    for n, bit in enumerate(bits):
        coded[n] = _OUTPUTS[state, bit]
        state = _NEXT_STATE[state, bit]
    return coded.reshape(-1)


def viterbi_half(llrs, n_bits):
    """Decode a zero-tailed rate-1/2 stream (positive LLR = bit 0)."""
    llrs = np.asarray(llrs, dtype=float).reshape(int(n_bits), 2)
    n_steps = llrs.shape[0]
    metrics = np.full(_N_STATES, -1e9)
    metrics[0] = 0.0
    decisions = np.empty((n_steps, _N_STATES), dtype=np.int8)
    for step in range(n_steps):
        branch = (llrs[step] @ _SIGNS.T).reshape(_N_STATES, 2)
        cand = metrics[_PREV_STATE] + branch[_PREV_STATE, _PREV_INPUT]
        choice = np.argmax(cand, axis=1)
        metrics = cand[np.arange(_N_STATES), choice]
        decisions[step] = choice
        metrics -= metrics.max()
    state = 0  # zero tail drives the encoder back to state 0
    hard = np.empty(n_steps, dtype=np.int8)
    for step in range(n_steps - 1, -1, -1):
        choice = decisions[step, state]
        hard[step] = _PREV_INPUT[state, choice]
        state = _PREV_STATE[state, choice]
    return hard


#: Puncturing pattern for rate 3/4 (per 802.11: drop bits 3 and 4 of each 6).
_PUNCTURE_34 = np.array([1, 1, 1, 0, 0, 1], dtype=bool)


def puncture(coded, num, den):
    """Puncture a rate-1/2 stream to num/den (1/2 passthrough, 3/4)."""
    coded = np.asarray(coded, dtype=np.int8)
    if (num, den) == (1, 2):
        return coded
    if (num, den) == (3, 4):
        reps = int(np.ceil(len(coded) / 6))
        mask = np.tile(_PUNCTURE_34, reps)[: len(coded)]
        return coded[mask]
    raise ValueError(f"unsupported code rate {num}/{den}")


def depuncture(llrs, num, den, coded_length):
    """Insert zero LLRs at punctured positions."""
    llrs = np.asarray(llrs, dtype=float)
    if (num, den) == (1, 2):
        return llrs
    if (num, den) == (3, 4):
        out = np.zeros(int(coded_length))
        reps = int(np.ceil(coded_length / 6))
        mask = np.tile(_PUNCTURE_34, reps)[:coded_length]
        out[mask] = llrs
        return out
    raise ValueError(f"unsupported code rate {num}/{den}")


def interleave(bits, coded_bits_per_symbol, bits_per_subcarrier):
    """Per-symbol two-permutation interleaver (802.11-2016 §17.3.5.7)."""
    bits = np.asarray(bits)
    n_cbps = int(coded_bits_per_symbol)
    if len(bits) % n_cbps:
        raise ValueError("bit count not a multiple of coded bits per symbol")
    s = max(bits_per_subcarrier // 2, 1)
    k = np.arange(n_cbps)
    i = (n_cbps // 16) * (k % 16) + k // 16
    j = s * (i // s) + (i + n_cbps - (16 * i) // n_cbps) % s
    perm = np.empty(n_cbps, dtype=np.int64)
    perm[j] = k  # output position j carries input bit k
    out = np.empty_like(bits)
    for sym in range(len(bits) // n_cbps):
        block = bits[sym * n_cbps : (sym + 1) * n_cbps]
        out[sym * n_cbps : (sym + 1) * n_cbps] = block[perm]
    return out


def deinterleave(values, coded_bits_per_symbol, bits_per_subcarrier):
    """Inverse of :func:`interleave` (works on bits or LLRs)."""
    values = np.asarray(values)
    n_cbps = int(coded_bits_per_symbol)
    if len(values) % n_cbps:
        raise ValueError("length not a multiple of coded bits per symbol")
    s = max(bits_per_subcarrier // 2, 1)
    k = np.arange(n_cbps)
    i = (n_cbps // 16) * (k % 16) + k // 16
    j = s * (i // s) + (i + n_cbps - (16 * i) // n_cbps) % s
    out = np.empty_like(values)
    for sym in range(len(values) // n_cbps):
        block = values[sym * n_cbps : (sym + 1) * n_cbps]
        out[sym * n_cbps : (sym + 1) * n_cbps] = block[j]
    return out
