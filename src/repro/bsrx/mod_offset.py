"""Modulation-offset determination (paper §3.3.2, Eq. 7).

The tag's coarse sync leaves the true position of its chip window inside
the OFDM symbol unknown to the UE by up to the guard slack.  The tag
prefixes each packet with a known preamble symbol; the UE slides the
preamble over the candidate offsets, and the offset maximising the
correlation (jointly with the implied path gain) is the modulation offset
used for the rest of the packet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve


@dataclass(frozen=True)
class OffsetEstimate:
    """Result of the preamble search: one packet, or one per stacked row."""

    offset: int  # chip-window start within the useful symbol
    gain: complex  # complex path gain (carries the phase offset phi)
    metric: float  # correlation peak (~|gain| when correctly aligned)


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
    symbol.  A ``(..., fft_size)`` stack runs as one batched
    ``fftconvolve`` and returns arrays of the leading shape instead, each
    row bit-identical to the 1-D search (ties resolve to the first
    maximum in both).
    """
    observed_useful = np.asarray(observed_useful, dtype=complex)
    expected_useful = np.asarray(expected_useful, dtype=complex)
    preamble = np.asarray(preamble, dtype=np.int8)
    n_chips = len(preamble)
    fft_size = observed_useful.shape[-1]
    if expected_useful.shape != observed_useful.shape:
        raise ValueError("observed and expected symbol shapes differ")

    signs = (2 * preamble - 1).astype(float)
    # Per-sample products z_n = y_n * conj(x_n): equals g * chip_n * |x_n|^2.
    # Leading axes flatten to rows; a 1-D symbol is a one-row stack.
    shape = observed_useful.shape[:-1]
    z = np.multiply(observed_useful, np.conj(expected_useful)).reshape(-1, fft_size)
    weights = (np.abs(expected_useful) ** 2).reshape(-1, fft_size)

    lo = max(0, int(nominal_offset) - int(search_slack))
    hi = min(fft_size - n_chips, int(nominal_offset) + int(search_slack))
    if hi < lo:
        raise ValueError("search window is empty")

    # Sliding correlation over every candidate offset at once.
    corr_all = fftconvolve(z, signs[None, ::-1].astype(complex), mode="valid", axes=1)
    energy_all = fftconvolve(weights, np.ones((1, n_chips)), mode="valid", axes=1).real
    corr_all = corr_all[:, lo : hi + 1]
    energy_all = np.maximum(energy_all[:, lo : hi + 1], 1e-30)

    metrics = np.abs(corr_all) / energy_all
    best = np.argmax(metrics, axis=1)
    rows = np.arange(len(z))
    offset = (lo + best).reshape(shape)
    gain = (corr_all[rows, best] / energy_all[rows, best]).reshape(shape)
    metric = metrics[rows, best].reshape(shape)
    if not shape:
        offset, gain, metric = int(offset), complex(gain), float(metric)
    return OffsetEstimate(offset=offset, gain=gain, metric=metric)
