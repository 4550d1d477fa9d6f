"""Test oracles for the vectorised LTE paths.

The vectorised OFDM, CFO, CRC and convolutional-coding paths in
:mod:`repro.lte` are pinned against these straightforward per-symbol and
bit-serial implementations: the OFDM and CFO loops are the original
pre-vectorisation code, the CRC is the original bit-serial shift
register over the three 36.212 generators restated here, the encoder is
a shift register built from the 36.212 generators alone, and the Viterbi
decoder is the original 64-state ``argmax`` trellis, batched over
equal-length blocks, with its tables rebuilt here from the same
generators.  None of them shares a table with the package.  The CRS
channel estimate and the max-log LLR demapper are the original per-symbol
and ``(symbols, points)`` code; they read the package's pilot and
constellation tables, because what they pin is the arithmetic.
The single-symbol OFDM pair and the Zadoff-Chu cyclic autocorrelation
are the textbook FFT forms that the OFDM and PSS property tests use.
They exist only to be compared against, so they live with the tests.
Do not "optimise" them: their value is that they are obviously the
textbook algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.lte.channel_est import ChannelEstimate
from repro.lte.crs import CRS_SYMBOLS_IN_SLOT, crs_positions, crs_values
from repro.lte.modulation import BITS_PER_SYMBOL, constellation
from repro.lte.params import (
    LteParams,
    SLOTS_PER_FRAME,
    SUBCARRIER_SPACING_HZ,
    SYMBOLS_PER_SLOT,
)
from repro.lte.resource_grid import SYMBOLS_PER_FRAME, symbol_index

#: 36.212 §5.1.1 CRC generators (without the leading x^L term), MSB first.
CRC_GENERATORS = {
    "crc24a": (24, 0x864CFB),
    "crc16": (16, 0x1021),
    "crc8": (8, 0x9B),
}

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


def modulate_symbol(params, subcarrier_values, symbol_in_slot):
    """IFFT one symbol's subcarriers and prepend its cyclic prefix."""
    bins = np.zeros(params.fft_size, dtype=complex)
    bins[params.subcarrier_indices()] = subcarrier_values
    useful = np.fft.ifft(bins) * np.sqrt(params.fft_size)
    cp = params.cp_length(symbol_in_slot)
    return np.concatenate([useful[-cp:], useful])


def demodulate_symbol(params, samples, symbol_in_slot):
    """FFT one symbol back to its subcarrier values.

    ``samples`` must contain the full CP + useful symbol.
    """
    cp = params.cp_length(symbol_in_slot)
    expected = cp + params.fft_size
    if len(samples) != expected:
        raise ValueError(f"expected {expected} samples, got {len(samples)}")
    useful = samples[cp:]
    bins = np.fft.fft(useful) / np.sqrt(params.fft_size)
    return bins[params.subcarrier_indices()]


def cyclic_autocorrelation(sequence):
    """Normalised cyclic autocorrelation at every lag.

    For an ideal Zadoff-Chu sequence the result is 1 at lag 0 and ~0
    elsewhere.
    """
    sequence = np.asarray(sequence, dtype=complex)
    n = len(sequence)
    spectrum = np.fft.fft(sequence)
    corr = np.fft.ifft(spectrum * np.conj(spectrum))
    return np.abs(corr) / float(n)


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


def crc_compute_reference(bits, kind="crc24a"):
    """The original bit-serial CRC: one shift-register step per bit."""
    length, poly = CRC_GENERATORS[kind]
    register = 0
    mask = (1 << length) - 1
    top = 1 << (length - 1)
    for bit in np.asarray(bits, dtype=np.int64):
        feedback = ((register & top) >> (length - 1)) ^ int(bit)
        register = ((register << 1) & mask) ^ (poly if feedback else 0)
    return np.array(
        [(register >> (length - 1 - i)) & 1 for i in range(length)], dtype=np.int8
    )


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


def _viterbi_tables():
    """Predecessor and branch-sign tables of the K=7 trellis.

    Returns ``(prev_state, prev_input, signs)``: for each new state its two
    ``(previous_state, input_bit)`` transitions, in increasing order of
    previous state, and the (128, 3) correlation signs ``1 - 2 * output``
    over ``previous_state * 2 + input_bit``.
    """
    n_states = 1 << (CONSTRAINT_LENGTH - 1)
    outputs = np.zeros((n_states, 2, len(GENERATORS)), dtype=np.int8)
    predecessors = np.zeros((n_states, 2, 2), dtype=np.int64)
    counts = np.zeros(n_states, dtype=np.int64)
    for state in range(n_states):
        for bit in (0, 1):
            register = (bit << (CONSTRAINT_LENGTH - 1)) | state
            for g_index, g in enumerate(GENERATORS):
                outputs[state, bit, g_index] = bin(register & g).count("1") & 1
            new = register >> 1
            predecessors[new, counts[new]] = (state, bit)
            counts[new] += 1
    assert np.all(counts == 2), "trellis must have exactly two predecessors"
    signs = (1.0 - 2.0 * outputs.astype(float)).reshape(-1, len(GENERATORS))
    return predecessors[:, :, 0], predecessors[:, :, 1], signs


_PREV_STATE, _PREV_INPUT, _SIGNS_FLAT = _viterbi_tables()


def viterbi_decode_reference(llrs_list, n_bits_list, wrap_margin=96):
    """The original batched Viterbi: one trellis sweep per block length.

    Blocks of equal length are stacked into one ``(B, n, 3)`` batch; each
    step gathers both candidates of every state through the predecessor
    tables and keeps the ``argmax`` (the even predecessor on a tie).
    """
    if len(llrs_list) != len(n_bits_list):
        raise ValueError("need one bit count per LLR block")
    groups = {}
    for index, (llrs, n_bits) in enumerate(zip(llrs_list, n_bits_list)):
        groups.setdefault(int(n_bits), []).append((index, np.asarray(llrs, float)))
    results = [None] * len(llrs_list)
    for n_bits, members in groups.items():
        batch = np.stack([llrs for _, llrs in members])
        decoded = _decode_batch_reference(
            batch.reshape(len(members), n_bits, 3), wrap_margin
        )
        for row, (index, _) in enumerate(members):
            results[index] = decoded[row]
    return results


def _decode_batch_reference(llrs, wrap_margin):
    """Viterbi over a (B, n, 3) LLR batch of tail-biting blocks."""
    n_blocks, n_bits, _ = llrs.shape
    n_states = len(_PREV_STATE)
    margin = min(int(wrap_margin), n_bits)
    extended = np.concatenate(
        [llrs[:, n_bits - margin :], llrs, llrs[:, :margin]], axis=1
    )
    n_steps = extended.shape[1]

    metrics = np.zeros((n_blocks, n_states))
    decisions = np.empty((n_steps, n_blocks, n_states), dtype=np.int8)

    for step in range(n_steps):
        # (B, 128) branch correlations -> (B, 64, 2) per (state, input).
        branch = (extended[:, step] @ _SIGNS_FLAT.T).reshape(n_blocks, n_states, 2)
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


def estimate_channel_loop(observed_grid, cell_id, params):
    """Pre-vectorisation ``estimate_channel``: per CRS symbol LS, smoothing
    and ``np.interp`` across frequency, then one ``np.interp`` per
    subcarrier across time."""
    if not isinstance(params, LteParams):
        params = LteParams.from_bandwidth(params)
    n_sc = params.n_subcarriers
    observed_grid = np.asarray(observed_grid, dtype=complex)
    if observed_grid.shape != (SYMBOLS_PER_FRAME, n_sc):
        raise ValueError(f"grid shape {observed_grid.shape} unexpected")

    pilot_rows = []
    ls_rows = []
    residual_energy = 0.0
    residual_count = 0
    subcarriers = np.arange(n_sc)

    for slot in range(SLOTS_PER_FRAME):
        for sym in CRS_SYMBOLS_IN_SLOT:
            row = symbol_index(slot, sym)
            cols = crs_positions(sym, cell_id, params.n_rb)
            pilots = crs_values(slot, sym, cell_id, params.n_rb)
            ls = observed_grid[row, cols] * np.conj(pilots) / np.abs(pilots) ** 2
            kernel = np.ones(3) / 3.0
            padded = np.concatenate([ls[:1], ls, ls[-1:]])
            smoothed = np.convolve(padded, kernel, mode="valid")
            interp_real = np.interp(subcarriers, cols, smoothed.real)
            interp_imag = np.interp(subcarriers, cols, smoothed.imag)
            full = interp_real + 1j * interp_imag
            pilot_rows.append(row)
            ls_rows.append(full)
            residual = ls - smoothed
            residual_energy += float(np.sum(np.abs(residual) ** 2)) * 1.5
            residual_count += len(cols)

    pilot_rows = np.asarray(pilot_rows)
    ls_rows = np.asarray(ls_rows)

    all_rows = np.arange(SYMBOLS_PER_FRAME)
    gains_real = np.empty((SYMBOLS_PER_FRAME, n_sc))
    gains_imag = np.empty((SYMBOLS_PER_FRAME, n_sc))
    for col in range(n_sc):
        gains_real[:, col] = np.interp(all_rows, pilot_rows, ls_rows[:, col].real)
        gains_imag[:, col] = np.interp(all_rows, pilot_rows, ls_rows[:, col].imag)
    gains = gains_real + 1j * gains_imag

    noise_variance = residual_energy / max(residual_count, 1)
    noise_variance = max(noise_variance, 1e-10)
    return ChannelEstimate(gains=gains, noise_variance=noise_variance)


def demodulate_llr_reference(symbols, scheme, noise_variance=1.0):
    """Pre-vectorisation ``demodulate_llr``: a ``(symbols, points)``
    distance table, and per bit a column mask that copies the table."""
    symbols = np.asarray(symbols, dtype=complex)
    points = constellation(scheme)
    n_bits = BITS_PER_SYMBOL[scheme]
    sigma2 = np.broadcast_to(
        np.maximum(np.asarray(noise_variance, dtype=float), 1e-12), symbols.shape
    )

    distances = np.abs(symbols[:, None] - points[None, :]) ** 2
    values = np.arange(len(points))
    llrs = np.empty((len(symbols), n_bits))
    for bit in range(n_bits):
        mask = ((values >> (n_bits - 1 - bit)) & 1).astype(bool)
        d0 = distances[:, ~mask].min(axis=1)
        d1 = distances[:, mask].min(axis=1)
        llrs[:, bit] = (d1 - d0) / sigma2
    return llrs.reshape(-1)
