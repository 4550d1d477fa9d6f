"""fleetN: network throughput vs. number of tags on one cell.

The natural multi-tag extension of the paper's per-venue throughput
figures (Fig. 16/21): hold the ambient cell fixed, grow the fleet, and
measure what the *network* delivers under each MAC scheme.  TDMA and the
EPC-style priority grant keep aggregate goodput flat (the cell's airtime
is simply divided), while slotted ALOHA pays the classic contention tax —
the shape 3GPP's Ambient-IoT work predicts for uncoordinated fleets.

Every (scheme, N) cell reuses one shared eNodeB capture through the
:class:`~repro.fleet.ambient.AmbientCache`, so the sweep costs one
transmit + modulation instead of ``sum(N)`` of them.
"""

from __future__ import annotations

from repro.experiments.registry import ExperimentResult
from repro.fleet import AmbientCache, Deployment, FleetRunner

TAG_COUNTS = (1, 2, 4, 8)
SCHEMES = ("tdma", "aloha", "priority")

#: The one shared cell: 1.4 MHz, four frames per run.
BANDWIDTH_MHZ = 1.4
N_FRAMES = 4


def run(seed=0):
    """Sweep fleet size per scheme; returns an :class:`ExperimentResult`."""
    cache = AmbientCache()
    rows = []
    try:
        for scheme in SCHEMES:
            for n_tags in TAG_COUNTS:
                deployment = Deployment.ring(
                    n_tags, bandwidth_mhz=BANDWIDTH_MHZ, n_frames=N_FRAMES
                )
                report = FleetRunner(
                    deployment, scheme=scheme, seed=seed, cache=cache
                ).run(payload_length=50_000)
                rows.append(
                    {
                        "scheme": report.scheme,
                        "n_tags": n_tags,
                        "aggregate_mbps": report.aggregate_throughput_bps / 1e6,
                        "per_tag_kbps": (
                            report.aggregate_throughput_bps / n_tags / 1e3
                        ),
                        "mean_ber": report.mean_ber,
                        "collision_frac": report.collision_fraction,
                        "airtime_used": report.airtime_utilisation,
                    }
                )
    finally:
        cache.clear()
    return ExperimentResult(
        name="fleetN",
        description="Network throughput vs. number of tags (one shared cell)",
        rows=rows,
        notes=(
            f"{BANDWIDTH_MHZ} MHz cell, {N_FRAMES} frames per run, shared "
            f"ambient ({cache.transmit_calls} eNodeB transmit call(s) total); "
            "granted schemes divide airtime, ALOHA pays the contention tax"
        ),
    )
