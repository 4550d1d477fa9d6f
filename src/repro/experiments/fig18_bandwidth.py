"""Fig. 18: LScatter throughput under each LTE bandwidth, LoS and NLoS.

Runs the *IQ-level* system (not the closed-form model) for every
bandwidth: throughput must scale with the subcarrier count, and NLoS must
cost less than ~10 %.

Campaign-capable: one shard per bandwidth.  The LoS and NLoS arms of a
point share one eNodeB capture through the process-global ambient cache
(the venue changes the channel, not the transmitter), which also keeps
the capture across shard retries.
"""

from __future__ import annotations

from repro.core import LScatterSystem, SystemConfig
from repro.experiments.registry import ExperimentResult
from repro.fleet.ambient import process_cache
from repro.lte.params import SUPPORTED_BANDWIDTHS_MHZ


def _measure(bandwidth_mhz, nlos, seed, n_frames, ambient_seed):
    config = SystemConfig(
        bandwidth_mhz=bandwidth_mhz,
        venue="smart_home_nlos" if nlos else "smart_home",
        enb_to_tag_ft=3.0,
        tag_to_ue_ft=3.0,
        n_frames=n_frames,
        reference_mode="genie",
    )
    # The ambient key ignores the venue, so the LoS and NLoS arms reuse
    # one transmit + OFDM modulation; only the channel rng differs.
    ambient = process_cache().get(config, ambient_seed)
    system = LScatterSystem(config, rng=seed)
    return system.run(payload_length=10_000_000, ambient=ambient)


def campaign_points(seed=0, smoke=False, n_frames=2):
    """One point per LTE bandwidth (smoke: the two narrowest)."""
    bandwidths = SUPPORTED_BANDWIDTHS_MHZ[:2] if smoke else SUPPORTED_BANDWIDTHS_MHZ
    return [
        {"bandwidth_mhz": float(bw), "n_frames": int(n_frames)}
        for bw in bandwidths
    ]


def run_point(params, seed):
    """LoS + NLoS runs at one bandwidth; returns the figure row."""
    bw = params["bandwidth_mhz"]
    n_frames = int(params.get("n_frames", 2))
    los = _measure(bw, False, seed, n_frames, ambient_seed=seed)
    nlos = _measure(bw, True, seed + 1, n_frames, ambient_seed=seed)
    drop = 1.0 - nlos.throughput_bps / max(los.throughput_bps, 1e-9)
    return {
        "bandwidth_mhz": float(bw),
        "los_throughput_mbps": los.throughput_bps / 1e6,
        "nlos_throughput_mbps": nlos.throughput_bps / 1e6,
        "los_ber": los.ber,
        "nlos_ber": nlos.ber,
        "nlos_drop_fraction": float(drop),
    }


def aggregate(rows, seed=0):
    return ExperimentResult(
        name="fig18",
        description="Throughput under different LTE bandwidths (LoS and NLoS)",
        rows=list(rows),
        notes=(
            "Throughput is proportional to bandwidth (subcarrier count); "
            "NLoS costs <10% (paper §4.3.2)."
        ),
    )
