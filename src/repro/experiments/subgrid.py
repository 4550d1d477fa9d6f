"""subgrid: cross-substrate goodput/BER vs distance and ambient occupancy.

One grid point per ``(substrate, arm, value)``: every registered
substrate mode (the chip scheme and its CRS-OOK / CRS-FSK / coded-pilot
/ uplink-SRS siblings, see :mod:`repro.substrates`) sweeps

* **distance** — tag-to-UE range at a per-substrate transmit power
  chosen so the ladder spans clean-link to heavily-degraded *without*
  saturating at BER 0.5 (the modes' sensitivities differ by tens of dB:
  a full-symbol correlation receiver shrugs off ranges that bury the
  per-chip slicer);
* **occupancy** — fraction of the ambient actually on air, modelled as
  seeded eNodeB dropout covering ``1 - occupancy`` of the capture.
  Fault placement is severity-independent (windows only widen as
  occupancy falls), which makes this arm monotone by construction.

:func:`aggregate` gates *every* (substrate, arm) curve on monotone
degradation — goodput non-increasing and BER non-decreasing along the
arm, within float slack — so a receiver regression in any one mode
fails the campaign, not just the mode's own unit tests.

Campaign-capable: each point is one pure ``run_point`` task, so
``repro campaign subgrid --shards N`` reproduces the monolithic rows
bit-for-bit from any shard partition.
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.core.system import LScatterSystem
from repro.experiments.gates import MonotoneGateError, gate_monotone  # noqa: F401
from repro.experiments.registry import ExperimentResult
from repro.stress.perturbations import PERTURBATIONS

#: Substrates swept, in comparison-table order.
SUBSTRATES = ("chip", "crs-ook", "crs-fsk", "coded-pilot", "srs-uplink")

#: Distance arm per substrate: (tx_power_dbm, tag_to_ue distances in ft).
#: Powers are tuned per mode so all three points sit between "clean" and
#: "degraded but not coin-flip" — see the module docstring.
DISTANCE_ARMS = {
    "chip": (-35.0, (3.0, 25.0, 60.0)),
    "crs-ook": (-35.0, (3.0, 60.0, 100.0)),
    "crs-fsk": (-35.0, (3.0, 60.0, 100.0)),
    "coded-pilot": (-35.0, (3.0, 40.0, 50.0)),
    "srs-uplink": (-75.0, (3.0, 20.0, 50.0)),
}

#: Ambient occupancy fractions swept (1.0 = always-on carrier).
OCCUPANCY_GRID = (1.0, 0.6, 0.3)

#: Seed of the dropout fault plan (fixed: positions must not move as
#: occupancy falls, so the gap windows are nested across the arm).
FAULT_SEED = 5

PAYLOAD_LENGTH = 4000
N_FRAMES = 2


def campaign_points(seed=0, smoke=False, substrate=None):
    """One point per (substrate, arm, value) — the campaign shard grid."""
    substrates = SUBSTRATES if substrate is None else (substrate,)
    points = []
    for mode in substrates:
        _power, distances = DISTANCE_ARMS[mode]
        dist_grid = (distances[0], distances[-1]) if smoke else distances
        occ_grid = (
            (OCCUPANCY_GRID[0], OCCUPANCY_GRID[-1]) if smoke else OCCUPANCY_GRID
        )
        points += [
            {"substrate": mode, "arm": "distance", "distance_ft": float(d)}
            for d in dist_grid
        ]
        points += [
            {"substrate": mode, "arm": "occupancy", "occupancy": float(o)}
            for o in occ_grid
        ]
    return points


def base_config(mode, **overrides):
    """The grid's shared geometry: 1.4 MHz, genie, model sync, 3 ft hops."""
    kwargs = dict(
        bandwidth_mhz=1.4,
        n_frames=N_FRAMES,
        reference_mode="genie",
        sync_mode="model",
        multipath=False,
        substrate=mode,
        enb_to_tag_ft=3.0,
        tag_to_ue_ft=3.0,
    )
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def _config(mode, arm, value):
    if arm == "distance":
        power, _distances = DISTANCE_ARMS[mode]
        return base_config(mode, tag_to_ue_ft=float(value), tx_power_dbm=power)
    occupancy = float(value)
    faults = None
    if occupancy < 1.0:
        faults = PERTURBATIONS["dropout"].build(1.0 - occupancy, None, FAULT_SEED)
    return base_config(mode, faults=faults)


def run_point(params, seed):
    """One grid point; pure per ``(params, seed)`` so shards reproduce."""
    mode = params["substrate"]
    arm = params["arm"]
    value = params["distance_ft"] if arm == "distance" else params["occupancy"]
    config = _config(mode, arm, value)
    report = LScatterSystem(config, rng=seed).run(payload_length=PAYLOAD_LENGTH)
    row = {
        "substrate": mode,
        "arm": arm,
        "goodput_kbps": report.throughput_bps / 1e3,
        "ber": float(report.ber),
        "n_bits": int(report.n_bits),
        "n_erased": int(report.n_erased_windows),
    }
    if arm == "distance":
        row["distance_ft"] = float(value)
    else:
        row["occupancy"] = float(value)
    return row


def _arm_order(row):
    # Degradation order: distance ascending, occupancy *descending*.
    if row["arm"] == "distance":
        return row["distance_ft"]
    return -row["occupancy"]


def aggregate(rows, seed=0):
    """Merge the grid rows; gates every (substrate, arm) curve."""
    rows = list(rows)
    ordered = []
    for mode in SUBSTRATES:
        for arm in ("distance", "occupancy"):
            arm_rows = [
                row
                for row in rows
                if row["substrate"] == mode and row["arm"] == arm
            ]
            if arm_rows:
                ordered += gate_monotone(
                    arm_rows,
                    f"substrate gate [{mode}/{arm}]",
                    "distance_ft" if arm == "distance" else "occupancy",
                    order=_arm_order,
                )
    return ExperimentResult(
        name="subgrid",
        description=(
            "Cross-substrate goodput/BER vs tag-to-UE distance and vs "
            "ambient occupancy, one curve per registered substrate mode"
        ),
        rows=ordered,
        notes=(
            "Genie reference, model sync, multipath off; distance arms "
            "run at per-substrate transmit powers so every mode spans "
            "clean-to-degraded.  Every (substrate, arm) curve is gated "
            "monotone (goodput non-increasing, BER non-decreasing)."
        ),
    )


def run(seed=0, smoke=False, substrate=None):
    """The whole grid, monolithic; identical to any sharded campaign run."""
    points = campaign_points(seed=seed, smoke=smoke, substrate=substrate)
    return aggregate([run_point(p, seed) for p in points], seed=seed)
