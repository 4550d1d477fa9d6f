"""Test oracles for the vectorised LTE paths.

The vectorised OFDM, CFO and convolutional-encoder paths in
:mod:`repro.lte` are pinned against these straightforward per-symbol and
bit-serial implementations: the OFDM and CFO loops are the original
pre-vectorisation code, and the encoder is a shift register built from
the 36.212 generators alone, so it shares no table with the package.
They exist only to be compared against, so they live with the tests.
Do not "optimise" them: their value is that they are obviously the
textbook algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.lte.params import (
    LteParams,
    SLOTS_PER_FRAME,
    SUBCARRIER_SPACING_HZ,
    SYMBOLS_PER_SLOT,
)
from repro.lte.resource_grid import SYMBOLS_PER_FRAME, symbol_index

#: 36.212 §5.1.3.1 convolutional code: constraint length 7, generators
#: 133/171/165 octal as 7-bit taps (MSB = newest bit).
CONSTRAINT_LENGTH = 7
GENERATORS = (0o133, 0o171, 0o165)


def _loop_subcarrier_indices(params):
    """Uncached copy of the original ``LteParams.subcarrier_indices``."""
    half = params.n_subcarriers // 2
    low = (np.arange(half) - half) % params.fft_size
    high = np.arange(1, half + 1)
    return np.concatenate([low, high])


def modulate_frame_loop(grid):
    """Pre-vectorisation ``modulate_frame``: 140 per-symbol IFFT calls."""
    params = grid.params
    pieces = []
    for slot in range(SLOTS_PER_FRAME):
        for sym in range(SYMBOLS_PER_SLOT):
            row = symbol_index(slot, sym)
            bins = np.zeros(params.fft_size, dtype=complex)
            bins[_loop_subcarrier_indices(params)] = grid.values[row]
            useful = np.fft.ifft(bins) * np.sqrt(params.fft_size)
            cp = params.cp_length(sym)
            pieces.append(np.concatenate([useful[-cp:], useful]))
    samples = np.concatenate(pieces)
    assert len(samples) == params.samples_per_frame
    return samples


def demodulate_frame_loop(params, samples):
    """Pre-vectorisation ``demodulate_frame``: 140 per-symbol FFT calls."""
    samples = np.asarray(samples, dtype=complex)
    if len(samples) < params.samples_per_frame:
        raise ValueError("need a full frame of samples")
    out = np.zeros((SYMBOLS_PER_FRAME, params.n_subcarriers), dtype=complex)
    offset = 0
    for slot in range(SLOTS_PER_FRAME):
        for sym in range(SYMBOLS_PER_SLOT):
            row = symbol_index(slot, sym)
            length = params.symbol_length(sym)
            cp = params.cp_length(sym)
            useful = samples[offset + cp : offset + length]
            bins = np.fft.fft(useful) / np.sqrt(params.fft_size)
            out[row] = bins[_loop_subcarrier_indices(params)]
            offset += length
    return out


def estimate_cfo_loop(samples, params, max_symbols=140):
    """Pre-vectorisation ``estimate_cfo``.

    Kept verbatim — including the original control-flow quirk where the
    inner ``break`` on an incomplete trailing symbol only exits the slot,
    so the outer loop spins through the remaining slots doing nothing.
    The spin never changed the estimate (no symbol fits once one fails to,
    since symbols are back-to-back), which is why the vectorised
    replacement can drop the loops entirely; equivalence tests compare
    the two to sub-µHz tolerance.
    """
    samples = np.asarray(samples, dtype=complex)
    if not isinstance(params, LteParams):
        params = LteParams.from_bandwidth(params)
    accumulator = 0.0 + 0.0j
    counted = 0
    offset = 0
    for slot in range(SLOTS_PER_FRAME):
        for sym in range(SYMBOLS_PER_SLOT):
            cp = params.cp_length(sym)
            total = cp + params.fft_size
            if offset + total > len(samples):
                break
            head = samples[offset : offset + cp]
            tail = samples[offset + params.fft_size : offset + total]
            accumulator += np.vdot(head, tail)
            counted += 1
            offset += total
            if counted >= max_symbols:
                break
        if counted >= max_symbols or offset >= len(samples):
            break
    if counted == 0:
        raise ValueError("capture shorter than one OFDM symbol")
    return float(np.angle(accumulator) / (2.0 * np.pi) * SUBCARRIER_SPACING_HZ)


def conv_encode_reference(bits):
    """Bit-serial tail-biting encoder, one shift-register step per bit.

    The register starts loaded with the last six message bits (tail
    biting); each output bit is the parity of the register masked by one
    generator.
    """
    bits = np.asarray(bits, dtype=np.int64)
    if len(bits) < CONSTRAINT_LENGTH - 1:
        raise ValueError("message shorter than the encoder memory")
    state = 0
    for bit in bits[-(CONSTRAINT_LENGTH - 1) :]:
        state = ((int(bit) << (CONSTRAINT_LENGTH - 1)) | state) >> 1
    coded = np.empty((len(bits), len(GENERATORS)), dtype=np.int8)
    for n, bit in enumerate(bits):
        register = (int(bit) << (CONSTRAINT_LENGTH - 1)) | state
        coded[n] = [bin(register & g).count("1") & 1 for g in GENERATORS]
        state = register >> 1
    return coded.reshape(-1)
