"""Fig. 32: impact of backscatter on the original LTE transmission.

Runs the IQ-level system with and without a tag present and decodes the
direct band with the full LTE receiver; the CDF of per-capture LTE
throughput should be indistinguishable (the backscatter is shifted out of
band; only a weak structural reflection stays in-band).
"""

from __future__ import annotations

import numpy as np

from repro.core import LScatterSystem, SystemConfig
from repro.experiments.registry import ExperimentResult

#: One-frame captures of a 64-QAM cell.
N_FRAMES = 1
MODULATION = "64qam"


def _throughputs(bandwidth_mhz, with_tag, seed, n_captures):
    from repro.lte.frame import CellConfig

    values = []
    for i in range(n_captures):
        config = SystemConfig(
            bandwidth_mhz=bandwidth_mhz,
            enb_to_tag_ft=3.0,
            tag_to_ue_ft=3.0,
            n_frames=N_FRAMES,
            reference_mode="decoded",
            cell=CellConfig(modulation=MODULATION, code_rate=0.5),
            # "Without backscatter": push the structural reflection to
            # nothing and park the tag idle (all chips +1 = pure shift).
            structural_reflection_db=-15.0 if with_tag else -200.0,
        )
        system = LScatterSystem(config, rng=seed + i)
        payload = 10_000_000 if with_tag else 0
        report = system.run(payload_length=max(payload, 1))
        values.append(report.lte_throughput_bps)
    return np.array(values)


def run(seed=0, bandwidths=(1.4, 5.0, 20.0), n_captures=4):
    """Rows: per-bandwidth LTE throughput with/without backscatter."""
    rows = []
    for bw in bandwidths:
        without = _throughputs(bw, False, seed, n_captures)
        with_tag = _throughputs(bw, True, seed + 100, n_captures)
        rows.append(
            {
                "bandwidth_mhz": float(bw),
                "lte_mbps_without": float(np.mean(without) / 1e6),
                "lte_mbps_with": float(np.mean(with_tag) / 1e6),
                "impact_fraction": float(
                    1.0 - np.mean(with_tag) / max(np.mean(without), 1e-9)
                ),
            }
        )
    return ExperimentResult(
        name="fig32",
        description="LTE throughput with vs without backscatter",
        rows=rows,
        notes="Impact is negligible: the hybrid signal lives out of band.",
    )
