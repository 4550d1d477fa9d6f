"""OFDM modulation/demodulation between resource grids and IQ samples.

Conventions:

* the IFFT is scaled by ``sqrt(fft_size)`` so subcarrier power equals
  time-domain sample power (unit-power QPSK subcarriers give unit-power
  samples when the grid is full);
* each symbol is prefixed with its normal cyclic prefix (160/144 scaled to
  the FFT size);
* the demodulator takes the FFT over the useful part, starting right after
  the CP.

The frame-level entry points (:func:`modulate_frame`,
:func:`demodulate_frame`) are the innermost hot path of the whole
reproduction — every eNodeB transmit, every UE decode, and every fleet
tag's reference reconstruction runs through them.  They batch the
per-symbol transforms into grouped ``fft``/``ifft`` calls over stacked
symbol matrices, with all start/length index arrays precomputed once per
:class:`~repro.lte.params.LteParams` (see :func:`frame_layout`).  The
batches are processed in slot-sized chunks so the working set stays
cache-resident.  Every transform runs on one thread (:data:`FFT_WORKERS`):
the batches here are small enough that splitting their rows across cores
costs more than it saves.

Batching does not change a single output bit: row-wise pocketfft
transforms are bit-identical to the per-symbol 1-D calls, and the scaling
and (de)mapping steps are elementwise.  Golden tests assert
``array_equal`` against the pre-vectorisation per-symbol loops, which
live with the tests as oracles (``tests/lte/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as _scipy_fft

from repro.lte.params import SLOTS_PER_FRAME, SYMBOLS_PER_SLOT
from repro.lte.resource_grid import SYMBOLS_PER_FRAME
from repro.obs.trace import span
from repro.utils.cache import memoize

#: Worker threads per ``scipy.fft`` call.  One: on a 2-core machine a
#: second worker was slower at every batch shape the receivers use, from
#: (14, 128) to (58, 2048) rows by bins, and the rows' results do not
#: depend on how many workers split them.
FFT_WORKERS = 1

#: Slots per batched-FFT chunk.  Two slots (14 symbols) keep the chunk's
#: input+output matrices inside a typical L2 cache at 20 MHz (2 x 448 KiB)
#: while amortising the per-call FFT dispatch overhead.
CHUNK_SLOTS = 2


@dataclass(frozen=True)
class FrameLayout:
    """Precomputed per-frame symbol geometry for one :class:`LteParams`.

    All arrays are read-only (cached via :mod:`repro.utils.cache`).
    ``*_in_slot`` arrays have shape (7,), frame-wide arrays shape (140,).
    """

    cp_in_slot: np.ndarray  # CP length of each symbol within a slot
    starts_in_slot: np.ndarray  # symbol start offset within its slot
    useful_starts_in_slot: np.ndarray  # post-CP offset within the slot
    starts: np.ndarray  # symbol start offset within the frame
    cp_lengths: np.ndarray  # CP length of each frame symbol
    lengths: np.ndarray  # CP + useful length of each frame symbol
    useful_starts: np.ndarray  # post-CP offset within the frame


@memoize()
def frame_layout(params):
    """Start/length index arrays of every OFDM symbol in a 10 ms frame."""
    cp_in_slot = np.array(
        [params.cp_length(sym) for sym in range(SYMBOLS_PER_SLOT)], dtype=np.int64
    )
    lengths_in_slot = cp_in_slot + params.fft_size
    starts_in_slot = np.concatenate(([0], np.cumsum(lengths_in_slot)[:-1]))
    cp_lengths = np.tile(cp_in_slot, SLOTS_PER_FRAME)
    lengths = cp_lengths + params.fft_size
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return FrameLayout(
        cp_in_slot=cp_in_slot,
        starts_in_slot=starts_in_slot,
        useful_starts_in_slot=starts_in_slot + cp_in_slot,
        starts=starts,
        cp_lengths=cp_lengths,
        lengths=lengths,
        useful_starts=starts + cp_lengths,
    )


def row_fft(values):
    """Row-wise FFT along the last axis, in one batched call.

    Bit-identical to calling ``np.fft.fft`` on each row (both are
    pocketfft; the golden tests in ``tests/bsrx`` pin this).  Used by the
    batched demodulator, whose leading axes are tags, half-frames and
    symbols.
    """
    return _scipy_fft.fft(values, axis=-1, workers=FFT_WORKERS)


def row_ifft(values):
    """Row-wise inverse FFT along the last axis; see :func:`row_fft`."""
    return _scipy_fft.ifft(values, axis=-1, workers=FFT_WORKERS)


def modulate_frame(grid):
    """Serialise a full :class:`ResourceGrid` to one frame of IQ samples.

    Vectorised: symbols are IFFT'd in slot-chunk batches and scattered
    into the output timeline through the precomputed
    :func:`frame_layout` — bit-identical to the per-symbol loop.
    """
    with span("lte.ofdm.modulate"):
        return _modulate_frame(grid)


def _modulate_frame(grid):
    params = grid.params
    layout = frame_layout(params)
    fft_size = params.fft_size
    half = params.n_subcarriers // 2
    scale = np.sqrt(fft_size)
    samples_per_slot = params.samples_per_slot
    n_chunk = CHUNK_SLOTS * SYMBOLS_PER_SLOT

    # Occupied bins: subcarriers 0..half-1 map to fft_size-half.., the
    # rest to 1..half (DC unused) — two contiguous blocks, so the scatter
    # is two slice copies.  Unoccupied bins stay zero across chunks.
    bins = np.zeros((n_chunk, fft_size), dtype=complex)
    out = np.empty(params.samples_per_frame, dtype=complex)
    by_slot = out.reshape(SLOTS_PER_FRAME, samples_per_slot)
    values = grid.values
    cp = layout.cp_in_slot
    sym_start = layout.starts_in_slot
    useful_start = layout.useful_starts_in_slot

    for slot0 in range(0, SLOTS_PER_FRAME, CHUNK_SLOTS):
        row0 = slot0 * SYMBOLS_PER_SLOT
        bins[:, fft_size - half :] = values[row0 : row0 + n_chunk, :half]
        bins[:, 1 : half + 1] = values[row0 : row0 + n_chunk, half:]
        useful = _scipy_fft.ifft(bins, axis=1, workers=FFT_WORKERS)
        useful *= scale
        stacked = useful.reshape(CHUNK_SLOTS, SYMBOLS_PER_SLOT, fft_size)
        chunk_out = by_slot[slot0 : slot0 + CHUNK_SLOTS]
        for sym in range(SYMBOLS_PER_SLOT):
            u0 = useful_start[sym]
            chunk_out[:, u0 : u0 + fft_size] = stacked[:, sym]
            s0 = sym_start[sym]
            chunk_out[:, s0 : s0 + cp[sym]] = stacked[:, sym, fft_size - cp[sym] :]
    assert len(out) == params.samples_per_frame
    return out


def demodulate_frame(params, samples):
    """FFT a frame of IQ samples back into a subcarrier array.

    Returns a ``(140, n_subcarriers)`` complex array.  ``samples`` must be
    frame-aligned (use cell search first on unaligned captures).
    Vectorised slot-chunk mirror of :func:`modulate_frame`; bit-identical
    to the per-symbol loop.
    """
    with span("lte.ofdm.demodulate"):
        return _demodulate_frame(params, samples)


def _demodulate_frame(params, samples):
    samples = np.asarray(samples, dtype=complex)
    if len(samples) < params.samples_per_frame:
        raise ValueError("need a full frame of samples")
    layout = frame_layout(params)
    fft_size = params.fft_size
    half = params.n_subcarriers // 2
    scale = np.sqrt(fft_size)
    samples_per_slot = params.samples_per_slot
    n_chunk = CHUNK_SLOTS * SYMBOLS_PER_SLOT

    by_slot = samples[: params.samples_per_frame].reshape(
        SLOTS_PER_FRAME, samples_per_slot
    )
    useful = np.empty((n_chunk, fft_size), dtype=complex)
    stacked = useful.reshape(CHUNK_SLOTS, SYMBOLS_PER_SLOT, fft_size)
    out = np.empty((SYMBOLS_PER_FRAME, params.n_subcarriers), dtype=complex)
    useful_start = layout.useful_starts_in_slot

    for slot0 in range(0, SLOTS_PER_FRAME, CHUNK_SLOTS):
        chunk = by_slot[slot0 : slot0 + CHUNK_SLOTS]
        for sym in range(SYMBOLS_PER_SLOT):
            u0 = useful_start[sym]
            stacked[:, sym] = chunk[:, u0 : u0 + fft_size]
        # The scratch is fully rewritten next chunk, so scipy may clobber it.
        bins = _scipy_fft.fft(useful, axis=1, workers=FFT_WORKERS, overwrite_x=True)
        rows = out[slot0 * SYMBOLS_PER_SLOT : (slot0 + CHUNK_SLOTS) * SYMBOLS_PER_SLOT]
        # Scalar division is elementwise, so dividing during the column
        # select is bit-identical to copying first and dividing after.
        np.divide(bins[:, fft_size - half :], scale, out=rows[:, :half])
        np.divide(bins[:, 1 : half + 1], scale, out=rows[:, half:])
    return out
