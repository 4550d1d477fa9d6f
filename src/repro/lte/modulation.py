"""Bit <-> constellation mapping for LTE (36.211 §7.1) with LLR demapping.

Gray-coded QPSK, 16-QAM and 64-QAM, normalised to unit average power.
The soft demapper produces max-log LLRs, positive for bit = 0, which is
the convention the Viterbi decoder in :mod:`repro.lte.coding` expects.
"""

from __future__ import annotations

import numpy as np

#: Scheme name -> bits per symbol.
BITS_PER_SYMBOL = {"bpsk": 1, "qpsk": 2, "16qam": 4, "64qam": 6}


def _qam_levels(bits):
    """Per-axis amplitude from Gray-coded bits, per the 36.211 tables.

    For 16-QAM, bit pairs map (0,0)->1, (0,1)->3, (1,0)->-1, (1,1)->-3
    (before normalisation); 64-QAM extends the same reflected-Gray pattern.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] == 1:
        return 1.0 - 2.0 * bits[..., 0]
    if bits.shape[-1] == 2:
        sign = 1.0 - 2.0 * bits[..., 0]
        mag = 1.0 + 2.0 * bits[..., 1]
        return sign * mag
    if bits.shape[-1] == 3:
        sign = 1.0 - 2.0 * bits[..., 0]
        # Reflected Gray: (b1,b2) 00->3, 01->1, 10->5, 11->7 ... per 36.211
        inner = np.where(
            bits[..., 1] == 0,
            np.where(bits[..., 2] == 0, 3.0, 1.0),
            np.where(bits[..., 2] == 0, 5.0, 7.0),
        )
        return sign * inner
    raise ValueError("unsupported per-axis bit count")


def _constellation(scheme):
    n_bits = BITS_PER_SYMBOL[scheme]
    points = np.zeros(2**n_bits, dtype=complex)
    for value in range(2**n_bits):
        bits = np.array(
            [(value >> (n_bits - 1 - i)) & 1 for i in range(n_bits)], dtype=int
        )
        if scheme == "bpsk":
            points[value] = (1.0 - 2.0 * bits[0]) * (1.0 + 1.0j) / np.sqrt(2.0)
            continue
        i_bits = bits[0::2]
        q_bits = bits[1::2]
        i_level = _qam_levels(i_bits[None, :])[0]
        q_level = _qam_levels(q_bits[None, :])[0]
        points[value] = i_level + 1j * q_level
    norm = np.sqrt(np.mean(np.abs(points) ** 2))
    return points / norm


_CONSTELLATIONS = {scheme: _constellation(scheme) for scheme in BITS_PER_SYMBOL}


def constellation(scheme):
    """Unit-power constellation points indexed by the MSB-first bit value."""
    if scheme not in _CONSTELLATIONS:
        raise ValueError(f"unknown modulation scheme {scheme!r}")
    return _CONSTELLATIONS[scheme].copy()


def modulate(bits, scheme):
    """Map a bit array to complex symbols.

    ``len(bits)`` must be a multiple of the scheme's bits-per-symbol.

    >>> sym = modulate(np.array([0, 0, 1, 1]), "qpsk")
    >>> len(sym)
    2
    """
    bits = np.asarray(bits, dtype=np.int64)
    n_bits = BITS_PER_SYMBOL[scheme]
    if len(bits) % n_bits:
        raise ValueError(
            f"bit count {len(bits)} not a multiple of {n_bits} for {scheme}"
        )
    groups = bits.reshape(-1, n_bits)
    weights = 1 << np.arange(n_bits - 1, -1, -1)
    values = groups @ weights
    return _CONSTELLATIONS[scheme][values]


def demodulate_llr(symbols, scheme, noise_variance=1.0):
    """Max-log LLRs per bit; positive means bit 0 is more likely.

    ``noise_variance`` is the complex noise variance per symbol; a scalar
    or an array broadcastable to ``symbols``.
    """
    symbols = np.asarray(symbols, dtype=complex)
    points = _CONSTELLATIONS[scheme]
    n_bits = BITS_PER_SYMBOL[scheme]
    # Per-symbol noise variance, broadcast from a scalar if needed.
    sigma2 = np.broadcast_to(
        np.maximum(np.asarray(noise_variance, dtype=float), 1e-12), symbols.shape
    )

    # (points, symbols): the points whose bit is 0 (or 1) are whole rows.
    distances = np.abs(symbols[None, :] - points[:, None]) ** 2
    values = np.arange(len(points))
    llrs = np.empty((len(symbols), n_bits))
    for bit in range(n_bits):
        mask = ((values >> (n_bits - 1 - bit)) & 1).astype(bool)
        d0 = distances[~mask].min(axis=0)
        d1 = distances[mask].min(axis=0)
        llrs[:, bit] = (d1 - d0) / sigma2
    return llrs.reshape(-1)
