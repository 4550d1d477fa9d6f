"""Phase-offset elimination (paper §3.3.1, Eq. 5/6).

The tag's chip clock is not phase-aligned to the eNodeB's sample clock,
and the backscatter path adds its own delay response; together they rotate
every demodulated value by a common unknown ``e^{j phi}`` (paper Fig. 12).

The paper cancels phi by conjugate-multiplying data subcarriers with a
reference subcarrier, both of which carry the same rotation (Eq. 6).  The
equivalent — and what the production pipeline uses — is to estimate the
complex path gain ``g = |g| e^{j phi}`` from resource elements whose chips
are known (the unmodulated PSS/SSS reflection, or the packet preamble) and
derotate by ``conj(g)``.  Both forms are provided; the Fig. 12 experiment
uses the subcarrier-product form directly.
"""

from __future__ import annotations

import numpy as np


def apply_phase_offset(values, phi):
    """Rotate values by a phase offset (used by tests and Fig. 12)."""
    return np.asarray(values, dtype=complex) * np.exp(1j * float(phi))


def eliminate_phase_offset(subcarriers, reference_index=0):
    """Paper Eq. 6: multiply every subcarrier by the reference's conjugate.

    ``subcarriers`` are the demodulated values ``Y_k`` of one symbol; the
    common rotation ``e^{j phi}`` cancels in ``Y_k Y_r^*``.  Returns the
    products (the reference position itself carries ``|Y_r|^2``).
    """
    subcarriers = np.asarray(subcarriers, dtype=complex)
    reference = subcarriers[int(reference_index)]
    return subcarriers * np.conj(reference)


def estimate_path_gain(observed, expected):
    """Least-squares complex gain g such that observed ~= g * expected.

    Used on sample windows whose expected content is known: the PSS/SSS
    symbols the tag reflects unmodulated, or a preamble window after chip
    alignment.
    """
    observed = np.asarray(observed, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if observed.shape != expected.shape:
        raise ValueError("observed and expected must be the same shape")
    energy = float(np.sum(np.abs(expected) ** 2))
    if energy <= 0.0:
        return 0.0 + 0.0j
    return complex(np.vdot(expected, observed) / energy)

