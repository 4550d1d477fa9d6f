"""Fig. 12: demodulated constellation, ideal vs phase-offset-rotated.

Demonstrates paper Eq. 5/6: an unsynchronised chip clock rotates the
whole constellation by a common phi; conjugate multiplication with a
reference value (Eq. 6) brings it back.
"""

from __future__ import annotations

import numpy as np

from repro.bsrx.phase_offset import apply_phase_offset, eliminate_phase_offset
from repro.experiments.registry import ExperimentResult
from repro.utils.rng import make_rng

#: Chips in the constellation and the common rotation the clock offset adds.
N_POINTS = 256
PHI_DEGREES = 35.0


def run(seed=0):
    """BPSK chip constellation before/after Eq. 6 elimination."""
    rng = make_rng(seed)
    chips = 1.0 - 2.0 * rng.integers(0, 2, size=N_POINTS).astype(float)
    noise = 0.05 * (rng.standard_normal(N_POINTS) + 1j * rng.standard_normal(N_POINTS))
    ideal = chips + noise
    phi = np.deg2rad(PHI_DEGREES)
    rotated = apply_phase_offset(ideal, phi)
    # Reference: a known pilot chip (+1) through the same rotation, appended
    # as the reference subcarrier of Eq. 6.
    pilot = apply_phase_offset(np.array([1.0 + 0j]), phi)
    corrected = eliminate_phase_offset(np.append(rotated, pilot), -1)[:-1]

    def angle_spread(values):
        angles = np.angle(values * np.sign(np.real(values) + 1e-12))
        return float(np.sqrt(np.mean(angles**2)))

    rows = [
        {
            "constellation": "ideal",
            "mean_rotation_deg": 0.0,
            "decision_errors": int(np.sum((np.real(ideal) > 0) != (chips > 0))),
        },
        {
            "constellation": "phase-offset",
            "mean_rotation_deg": PHI_DEGREES,
            "decision_errors": int(np.sum((np.real(rotated) > 0) != (chips > 0))),
        },
        {
            "constellation": "eliminated",
            "mean_rotation_deg": float(
                np.rad2deg(np.angle(np.sum(corrected * chips)))
            ),
            "decision_errors": int(np.sum((np.real(corrected) > 0) != (chips > 0))),
        },
    ]
    return ExperimentResult(
        name="fig12",
        description="Constellation rotation by phase offset and its elimination",
        rows=rows,
        notes="Eq. 6 removes the common rotation; decisions become error-free.",
    )
