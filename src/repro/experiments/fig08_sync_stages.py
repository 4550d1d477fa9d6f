"""Fig. 8: outputs of each sync-circuit stage over 20 ms of ambient LTE."""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import ExperimentResult
from repro.lte import LteTransmitter
from repro.tag.sync_circuit import SyncCircuit
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng

#: The figure's 1.4 MHz cell at 25 dB SNR, about 2000 rows per 20 ms trace.
BANDWIDTH_MHZ = 1.4
SNR_DB = 25.0
DECIMATE_TO = 2000


def run(seed=0):
    """Run the analog chain on four frames; rows sample the *last* 20 ms
    of the three traces (the first frames warm the averaging RC up)."""
    rng = make_rng(seed)
    capture = LteTransmitter(BANDWIDTH_MHZ, rng=rng).transmit(4)
    noisy = awgn(capture.samples, SNR_DB, rng)
    circuit = SyncCircuit(capture.params.sample_rate_hz, rng=rng)
    result = circuit.process(noisy)

    fs = capture.params.sample_rate_hz
    window_start = len(result.envelope) - int(20e-3 * fs)
    stride = max((len(result.envelope) - window_start) // DECIMATE_TO, 1)
    idx = np.arange(window_start, len(result.envelope), stride)
    peak = float(np.max(result.envelope)) or 1.0
    rows = [
        {
            "time_ms": float((i - window_start) / fs * 1e3),
            "rc_filter": float(result.envelope[i] / peak),
            "signal_average": float(result.average[i] / peak),
            "pss_determination": int(result.comparator[i]),
        }
        for i in idx
    ]
    edges_ms = (result.edges - window_start) / fs * 1e3
    edges_ms = edges_ms[(edges_ms >= 0) & (edges_ms <= 20)]
    notes = (
        f"detected edges at {np.round(edges_ms, 2).tolist()} ms in the "
        "window (expect one ~every 5 ms, shortly after each PSS)"
    )
    return ExperimentResult(
        name="fig08",
        description="Outputs of each stage of the sync circuit",
        rows=rows,
        notes=notes,
    )
