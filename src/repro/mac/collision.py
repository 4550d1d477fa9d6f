"""IQ-level two-tag collision: superimposed reflections at the UE.

Both tags reflect the same ambient frame into the same shifted band; the
UE's preamble search and matched filter lock onto whichever reflection
dominates.  The capture behaviour measured here calibrates the analytic
scheme's ``CAPTURE_THRESHOLD_DB``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bsrx.demodulator import BackscatterDemodulator
from repro.core.metrics import measure_link
from repro.lte import LteTransmitter
from repro.tag.controller import TagController
from repro.tag.modulator import ChipModulator
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng, spawn_rngs

#: The collision's cell, capture length and noise: two frames of a
#: 1.4 MHz carrier, received at 35 dB SNR.
BANDWIDTH_MHZ = 1.4
N_FRAMES = 2
SNR_DB = 35.0


@dataclass
class CollisionOutcome:
    """BER of the stronger tag's data under a given power advantage."""

    power_advantage_db: float
    strong_tag_ber: float
    n_bits: int


def two_tag_collision(power_advantage_db, seed=0):
    """Collide two tags; returns the stronger tag's :class:`CollisionOutcome`.

    Both tags are frame-synchronised (they hear the same PSS) but carry
    independent payloads; the weaker reflection acts as structured
    interference on the stronger one's chips.
    """
    # The noise draws from the third of three spawned streams.
    rng_noise = spawn_rngs(seed, 3)[2]
    capture = LteTransmitter(BANDWIDTH_MHZ, rng=seed).transmit(N_FRAMES)
    params = capture.params
    modulator = ChipModulator()

    def reflect(payload_seed):
        controller = TagController(params)
        payload = make_rng(payload_seed).integers(0, 2, size=100_000).astype(np.int8)
        schedule = controller.build_schedule(
            controller.genie_timing(0, 0), len(capture.samples), payload
        )
        return schedule, modulator.reflect(capture.samples, schedule.chips)

    schedule_a, reflection_a = reflect(seed + 10)
    schedule_b, reflection_b = reflect(seed + 20)

    weaker = 10.0 ** (-float(power_advantage_db) / 20.0)
    hybrid = reflection_a + weaker * reflection_b
    hybrid = awgn(hybrid, SNR_DB, rng_noise)

    demod = BackscatterDemodulator(params)
    half = params.samples_per_frame // 2
    halves = np.arange(0, len(hybrid) - half + 1, half)
    result = demod.demodulate(hybrid, capture.samples, halves)
    counts = measure_link(schedule_a, result, params.fft_size // 2)
    return CollisionOutcome(
        power_advantage_db=float(power_advantage_db),
        strong_tag_ber=counts.n_errors / max(counts.n_bits, 1),
        n_bits=counts.n_bits,
    )
