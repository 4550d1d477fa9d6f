"""Fig. 31: CDF of the sync circuit's timing error.

Feeds many frames of ambient LTE through the analog chain and measures
each detection against the true PSS instant (the paper's baseline is a
USRP LTE receiver, which our ground truth stands in for).  The paper
finds ~90 % of errors within 30-40 us, roughly normal.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import ExperimentResult
from repro.lte import LteTransmitter
from repro.lte.params import PSS_PERIOD_SECONDS
from repro.tag.sync_circuit import SyncCircuit
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng

#: The figure's run: 20 frames (40 PSS events) of a 1.4 MHz cell at 20 dB SNR.
BANDWIDTH_MHZ = 1.4
SNR_DB = 20.0
N_FRAMES = 20


def measure_sync_errors(seed=0, n_frames=N_FRAMES):
    """Sync errors (seconds) for every PSS event in ``n_frames`` frames.

    The error convention follows the paper: comparator edge time minus
    the moment an LTE receiver knows the sync signals arrived (the start
    of the SSS+PSS region, our ground truth).  Positive errors are the
    analog chain's response delay.
    """
    from repro.lte.sss import SSS_SYMBOL_IN_SLOT

    rng = make_rng(seed)
    capture = LteTransmitter(BANDWIDTH_MHZ, rng=rng).transmit(n_frames)
    params = capture.params
    noisy = awgn(capture.samples, SNR_DB, rng)
    circuit = SyncCircuit(params.sample_rate_hz, rng=rng)
    result = circuit.process(noisy)

    sync_start = params.symbol_start(0, SSS_SYMBOL_IN_SLOT) / params.sample_rate_hz
    half = PSS_PERIOD_SECONDS
    true_times = sync_start + half * np.arange(2 * n_frames)
    errors = result.errors_vs(true_times, tolerance_seconds=2e-4)
    return np.asarray(errors)


def run(seed=0):
    """Rows: the error CDF on a microsecond grid."""
    errors_us = measure_sync_errors(seed=seed) * 1e6
    grid = np.arange(0, 81, 5)
    rows = [
        {
            "error_us": float(g),
            "cdf": float(np.mean(errors_us <= g)) if len(errors_us) else 0.0,
        }
        for g in grid
    ]
    within = (
        float(np.mean((errors_us >= 20) & (errors_us <= 45)))
        if len(errors_us)
        else 0.0
    )
    return ExperimentResult(
        name="fig31",
        description="Synchronization error CDF",
        rows=rows,
        notes=(
            f"{len(errors_us)} events; mean {np.mean(errors_us):.1f} us, "
            f"std {np.std(errors_us):.1f} us; fraction in [20, 45] us: "
            f"{within:.2f} (paper: ~90% within 30-40 us)"
        ),
    )
