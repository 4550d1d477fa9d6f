"""netgrid: multi-cell goodput vs inter-site distance and interferer count.

The paper deploys against *one* ambient cell; this experiment asks what
city-scale reuse costs.  Two sweeps over a 7-cell hexagonal cluster:

* **isd** — tags sit at a fixed offset from their serving site while the
  cluster's inter-site distance shrinks.  Closer neighbours mean more
  co-channel power at the tag, so goodput falls and BER rises as the
  network densifies.
* **interferers** — one tag near the centre cell, with the topology
  restricted to the centre plus the first ``k`` ring cells.  Every added
  neighbour injects more co-channel power, so degradation must be
  *monotone* in ``k`` — and :func:`aggregate` gates on exactly that
  (goodput non-increasing, BER non-decreasing, within float slack).

Both sweeps run noise-free, multipath-free, with the sync error pinned to
zero and a genie reference: every impairment other than inter-cell
interference is switched off, so the curves isolate — and the gate can
legitimately demand — the interference effect.

Campaign-capable: each sweep point is one pure ``run_point`` task, so
``repro campaign netgrid --shards N`` reproduces the monolithic rows
bit-for-bit from any shard partition.
"""

from __future__ import annotations

from repro.cells import NetworkDeployment, NetworkRunner, NetworkTag, Topology
from repro.experiments.gates import MonotoneGateError, gate_monotone  # noqa: F401
from repro.experiments.registry import ExperimentResult

#: Inter-site distances swept by the isd arm (feet).
ISD_GRID_FT = (100.0, 150.0, 250.0, 400.0)
#: Active ring-cell counts swept by the interferers arm.
INTERFERER_GRID = (0, 1, 2, 3, 4, 5, 6)
#: Fixed cluster pitch for the interferers arm (feet).
INTERFERER_ISD_FT = 150.0


def _tags(serving_xy, offsets_ft):
    return [
        NetworkTag(
            name=f"tag{i:02d}",
            x_ft=serving_xy[0] + dx,
            y_ft=serving_xy[1] + dy,
        )
        for i, (dx, dy) in enumerate(offsets_ft)
    ]


def _deployment(tags):
    # Interference-only physics: see the module docstring.
    return NetworkDeployment(
        tags=tags,
        reference_mode="genie",
        add_noise=False,
        multipath=False,
        sync_error_samples=0,
    )


def campaign_points(seed=0, smoke=False):
    """One point per (sweep, value) pair — the campaign shard grid."""
    isd_grid = ISD_GRID_FT[::3] if smoke else ISD_GRID_FT
    k_grid = INTERFERER_GRID[:3] if smoke else INTERFERER_GRID
    points = [{"sweep": "isd", "inter_site_ft": float(d)} for d in isd_grid]
    points += [{"sweep": "interferers", "n_interferers": int(k)} for k in k_grid]
    return points


def _run_isd_point(params, seed):
    inter_site_ft = params["inter_site_ft"]
    topology = Topology.hex_cluster(
        inter_site_ft=inter_site_ft, rings=1, n_frames=2
    )
    centre = topology.site(0)
    tags = _tags(
        (centre.x_ft, centre.y_ft), [(18.0, 6.0), (-12.0, 15.0)]
    )
    with NetworkRunner(
        topology, _deployment(tags), seed=seed, payload_length=20000
    ) as runner:
        report = runner.run()
    return {
        "sweep": "isd",
        "inter_site_ft": inter_site_ft,
        "goodput_kbps": report.aggregate_goodput_bps / 1e3,
        "mean_ber": report.mean_ber,
        "n_cells": report.n_cells,
    }


def _run_interferers_point(params, seed):
    k = params["n_interferers"]
    topology = Topology.hex_cluster(
        inter_site_ft=INTERFERER_ISD_FT, rings=1, n_frames=2
    )
    # Centre cell plus the first k ring cells, in cell-id order.
    topology = topology.restrict([0] + [c for c in topology.cell_ids[1:]][:k])
    centre = topology.site(0)
    tags = _tags((centre.x_ft, centre.y_ft), [(18.0, 6.0)])
    with NetworkRunner(
        topology, _deployment(tags), seed=seed, payload_length=20000
    ) as runner:
        report = runner.run()
    return {
        "sweep": "interferers",
        "n_interferers": k,
        "goodput_kbps": report.aggregate_goodput_bps / 1e3,
        "mean_ber": report.mean_ber,
        "n_cells": report.n_cells,
    }


def run_point(params, seed):
    """One sweep point; pure per ``(params, seed)`` so shards reproduce."""
    if params["sweep"] == "isd":
        return _run_isd_point(params, seed)
    return _run_interferers_point(params, seed)


def aggregate(rows, seed=0):
    """Merge the sweep rows; gates the interference arm on monotonicity."""
    rows = list(rows)
    isd = sorted(
        (row for row in rows if row["sweep"] == "isd"),
        key=lambda row: row["inter_site_ft"],
    )
    interferers = gate_monotone(
        [row for row in rows if row["sweep"] == "interferers"],
        "interference gate",
        "n_interferers",
        ber="mean_ber",
    )
    return ExperimentResult(
        name="netgrid",
        description=(
            "Multi-cell goodput/BER vs inter-site distance and vs number "
            "of interfering cells (7-cell hex cluster)"
        ),
        rows=isd + interferers,
        notes=(
            "Noise-free, multipath-free, genie reference: degradation is "
            "purely inter-cell interference.  The interferers arm is gated "
            "monotone (goodput non-increasing, BER non-decreasing in k)."
        ),
    )


def run(seed=0, smoke=False):
    """Both sweeps, monolithic; identical to any sharded campaign run."""
    points = campaign_points(seed=seed, smoke=smoke)
    return aggregate([run_point(p, seed) for p in points], seed=seed)
