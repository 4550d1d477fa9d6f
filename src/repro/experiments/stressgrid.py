"""stressgrid: goodput/BER/sync-loss vs attack intensity per scenario.

The campaign-shaped face of :mod:`repro.stress`: one pure ``run_point``
task per (scenario, intensity) cell, so ``repro campaign stressgrid
--shards N`` reproduces the monolithic grid bit-for-bit from any shard
partition — and the nightly crash-and-resume drill can kill it mid-grid.

``aggregate`` enforces the two stress-layer invariants as gates:

* **no-op** — every scenario's intensity-0 row must report a
  bit-identical run against the unstressed pipeline (the intensity-0
  ``run_point`` performs the IQ comparison itself and records the
  verdict, keeping each point a pure function of ``(params, seed)``);
* **monotone degradation** — per scenario, goodput non-increasing and
  BER non-decreasing in intensity: the gate of
  :mod:`repro.experiments.gates`, shared with netgrid and subgrid.

Full grid: 6 scenarios x 5 intensities = 30 points.  Smoke: 2 scenarios
x 3 intensities = 6 points.
"""

from __future__ import annotations

from repro.experiments.gates import MonotoneGateError, gate_monotone  # noqa: F401
from repro.experiments.registry import ExperimentResult
from repro.stress.perturbations import noop_contract, run_session
from repro.stress.scenarios import SCENARIOS, make_scenario_plan
from repro.stress.suite import STRESS_SWEEP

#: Attack intensities swept per scenario.
INTENSITY_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
INTENSITY_GRID_SMOKE = (0.0, 0.5, 1.0)
#: Scenarios the smoke grid keeps (one jammer, one congestion shape).
SMOKE_SCENARIOS = ("sweep-jammer", "bursty-pdsch")

PAYLOAD_LENGTH = 20000
PAYLOAD_LENGTH_SMOKE = 6000


class NoopGateError(AssertionError):
    """A zero-intensity scenario was not a bit-identical no-op."""


def campaign_points(seed=0, smoke=False):
    """One point per (scenario, intensity) cell — the campaign grid."""
    scenarios = SMOKE_SCENARIOS if smoke else SCENARIOS
    intensities = INTENSITY_GRID_SMOKE if smoke else INTENSITY_GRID
    return [
        {"scenario": str(s), "intensity": float(i), "smoke": bool(smoke)}
        for s in scenarios
        for i in intensities
    ]


def run_point(params, seed):
    """One grid cell; pure per ``(params, seed)`` so shards reproduce."""
    scenario = params["scenario"]
    intensity = float(params["intensity"])
    smoke = bool(params.get("smoke", False))
    payload_length = PAYLOAD_LENGTH_SMOKE if smoke else PAYLOAD_LENGTH
    lte = STRESS_SWEEP.params
    plan = (
        make_scenario_plan(scenario, intensity, lte, seed=seed)
        if intensity > 0
        else None
    )
    config = STRESS_SWEEP.config(smoke, plan=plan)
    report = run_session(config, seed, payload_length)
    row = {
        "scenario": scenario,
        "intensity": intensity,
        "goodput_kbps": float(report.throughput_bps) / 1e3,
        "ber": float(report.ber) if report.n_bits else 0.0,
        "n_erased_windows": int(report.n_erased_windows),
        "sync_failed": bool(report.sync_failed),
    }
    if intensity == 0.0:
        zero = make_scenario_plan(scenario, 0.0, lte, seed=seed)
        verdict, _ = noop_contract(STRESS_SWEEP, zero, smoke, seed, payload_length)
        row["noop_identical"] = verdict["passed"]
    return row


def _gate_scenario(scenario, rows):
    """No-op at zero, then monotone degradation across the sweep."""
    for row in rows:
        if row["intensity"] == 0.0 and not row.get("noop_identical", True):
            raise NoopGateError(
                f"stress gate: scenario {scenario!r} at intensity 0 is not "
                "bit-identical to the unstressed run; the zero-intensity "
                "no-op contract is broken"
            )
    return gate_monotone(rows, f"stress gate [{scenario}]", "intensity")


def aggregate(rows, seed=0):
    """Merge the grid rows; gates no-op and monotone degradation."""
    rows = list(rows)
    scenarios = []
    for row in rows:
        if row["scenario"] not in scenarios:
            scenarios.append(row["scenario"])
    gated = []
    for scenario in scenarios:
        gated += _gate_scenario(
            scenario, [r for r in rows if r["scenario"] == scenario]
        )
    return ExperimentResult(
        name="stressgrid",
        description=(
            "Goodput/BER/erasures vs attack intensity per adversarial "
            "scenario (see repro.stress.scenarios)"
        ),
        rows=gated,
        notes=(
            "Model sync, genie reference, erasure marking and per-window "
            "SNR gate on.  Gated: intensity 0 bit-identical to the "
            "unstressed run; goodput non-increasing and BER non-decreasing "
            "in intensity, per scenario."
        ),
    )


def run(seed=0, smoke=False):
    """The full grid, monolithic; identical to any sharded campaign run."""
    points = campaign_points(seed=seed, smoke=smoke)
    return aggregate([run_point(p, seed) for p in points], seed=seed)
