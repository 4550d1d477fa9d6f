"""Modulation-offset determination (paper §3.3.2, Eq. 7).

The tag's coarse sync leaves the true position of its chip window inside
the OFDM symbol unknown to the UE by up to the guard slack.  The tag
prefixes each packet with a known preamble symbol; the UE slides the
preamble over the candidate offsets, and the offset maximising the
correlation (jointly with the implied path gain) is the modulation offset
used for the rest of the packet.

The sliding correlation is one ``fft_size``-point round trip per symbol:
the products ``y * conj(x)`` are transformed, multiplied by the memoised
conjugate spectrum of the zero-padded ±1 preamble and transformed back.
That computes the *circular* correlation, which equals the linear one at
every candidate because the search window is clamped to ``hi + n_chips <=
fft_size``: no candidate's chip window wraps past the symbol's end.  The
reference energy under each candidate window is a difference of one
cumulative sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lte.ofdm import row_fft, row_ifft
from repro.utils.cache import memoize


@dataclass(frozen=True)
class OffsetEstimate:
    """Result of the preamble search: one packet, or one per stacked row."""

    offset: int  # chip-window start within the useful symbol
    gain: complex  # complex path gain (carries the phase offset phi)
    metric: float  # correlation peak (~|gain| when correctly aligned)


@memoize()
def _preamble_spectrum(preamble_bytes, fft_size):
    """Conjugate spectrum of the ±1 preamble zero-padded to ``fft_size``."""
    chips = np.frombuffer(preamble_bytes, dtype=np.int8)
    signs = np.zeros(fft_size, dtype=complex)
    signs[: len(chips)] = 2.0 * chips - 1.0
    return np.conj(row_fft(signs))


def find_modulation_offset(
    observed_useful,
    expected_useful,
    preamble,
    nominal_offset,
    search_slack,
):
    """Locate the preamble chips inside useful OFDM symbols.

    ``observed_useful``/``expected_useful`` are the received and
    reconstructed-ambient useful-symbol samples along the last axis
    (length = FFT size); ``preamble`` the known 0/1 chips; candidates are
    ``nominal_offset ± search_slack``, clamped to keep the window inside
    the symbol.

    Returns an :class:`OffsetEstimate` of Python scalars for one 1-D
    symbol.  A ``(..., fft_size)`` stack runs as one batched transform
    and returns arrays of the leading shape instead, each row
    bit-identical to the 1-D search (ties resolve to the first maximum in
    both).
    """
    observed_useful = np.asarray(observed_useful, dtype=complex)
    expected_useful = np.asarray(expected_useful, dtype=complex)
    preamble = np.asarray(preamble, dtype=np.int8)
    n_chips = len(preamble)
    fft_size = observed_useful.shape[-1]
    if expected_useful.shape != observed_useful.shape:
        raise ValueError("observed and expected symbol shapes differ")

    lo = max(0, int(nominal_offset) - int(search_slack))
    hi = min(fft_size - n_chips, int(nominal_offset) + int(search_slack))
    if hi < lo:
        raise ValueError("search window is empty")

    # Per-sample products z_n = y_n * conj(x_n): equals g * chip_n * |x_n|^2.
    # Leading axes flatten to rows; a 1-D symbol is a one-row stack.
    shape = observed_useful.shape[:-1]
    z = np.multiply(observed_useful, np.conj(expected_useful)).reshape(-1, fft_size)
    weights = np.square(expected_useful.real) + np.square(expected_useful.imag)
    spectrum = _preamble_spectrum(preamble.tobytes(), fft_size)
    corr = row_ifft(np.multiply(row_fft(z), spectrum))[:, lo : hi + 1]
    # Energy of |x_n|^2 under each candidate's n_chips-sample window, from
    # csum[:, j] = sum(weights[:, :j]).
    csum = np.zeros((len(z), fft_size + 1))
    np.cumsum(weights.reshape(-1, fft_size), axis=1, out=csum[:, 1:])
    energy = np.subtract(csum[:, lo + n_chips : hi + n_chips + 1], csum[:, lo : hi + 1])
    energy = np.maximum(energy, 1e-30)

    metrics = np.abs(corr) / energy
    best = np.argmax(metrics, axis=1)
    rows = np.arange(len(z))
    offset = (lo + best).reshape(shape)
    gain = (corr[rows, best] / energy[rows, best]).reshape(shape)
    metric = metrics[rows, best].reshape(shape)
    if not shape:
        offset, gain, metric = int(offset), complex(gain), float(metric)
    return OffsetEstimate(offset=offset, gain=gain, metric=metric)
