"""Stress harness probes and a one-scenario smoke run of the suite."""

import json

import pytest

from repro.stress.suite import (
    RESYNC_BUDGET,
    _arq_jamming_probe,
    _mac_backoff_probe,
    run_stress,
)


def test_mac_backoff_probe_passes():
    result = _mac_backoff_probe()
    assert result["passed"]
    assert result["max_backoff_seen"] <= result["max_backoff_slots"]
    assert result["transmitted_after"] > 0
    storm_len = result["storm_slots"][1] - result["storm_slots"][0]
    assert result["transmitted_during_storm"] < storm_len
    assert result["recovery_latency_slots"] <= result["max_backoff_slots"] + 1


def test_arq_jamming_probe_bit_exact_across_sweep():
    result = _arq_jamming_probe([0.0, 0.5, 1.0], seed=0, payload_bits=2048)
    assert result["passed"]
    assert result["all_bit_exact"]
    assert result["all_bounded"]
    points = result["points"]
    # Jamming costs frames: the jammed points retransmit more than clean.
    assert points[-1]["frames_sent"] > points[0]["frames_sent"]
    assert points[0]["erased_frames"] == 0
    assert points[-1]["erased_frames"] > 0


def test_run_stress_rejects_unknown_scenario(tmp_path):
    with pytest.raises(ValueError, match="unknown stress scenario"):
        run_stress(output=None, smoke=True, scenarios=["bogus"])


def test_run_stress_smoke_single_scenario(tmp_path):
    """End-to-end: one non-sync scenario through the whole harness."""
    output = tmp_path / "stress.json"
    report = run_stress(
        output=str(output), smoke=True, seed=0, scenarios=["sweep-jammer"]
    )
    assert report["passed"]
    assert report["meta"]["mode"] == "smoke"
    (contract,) = report["noop_contracts"]
    assert contract["scenario"] == "sweep-jammer"
    assert contract["iq_identical"] and contract["metrics_identical"]
    (sweep,) = report["sweeps"]
    assert sweep["monotone_goodput"]
    assert [p["intensity"] for p in sweep["points"]] == [0.0, 0.5, 1.0]
    goodputs = [p["goodput_bps"] for p in sweep["points"]]
    # Full-blast jamming must actually cost goodput, not just not-help.
    assert goodputs[-1] < goodputs[0]
    assert report["sync_probes"] == []  # sweep-jammer is not sync-coupled
    assert report["degradation"]["mac_backoff"]["passed"]
    assert report["degradation"]["arq_jamming"]["passed"]
    on_disk = json.loads(output.read_text())
    assert on_disk["passed"] is True


def test_resync_budget_is_small_and_positive():
    assert 1 <= RESYNC_BUDGET <= 5


#: ``(n_bits, n_errors, n_windows, n_erased_windows)`` per scenario at the
#: smoke intensities (0, 0.5, 1.0), recorded before the chaos and stress
#: harnesses were merged into one sweep: the shared harness must
#: reproduce them.
PINNED_SMOKE_POINTS = {
    "bursty-pdsch": [(12528, 4, 174, 0), (9648, 192, 174, 40), (7344, 311, 174, 72)],
    "signalling-storm": [
        (12528, 4, 174, 0), (10800, 251, 174, 24), (8712, 352, 174, 53),
    ],
    "sweep-jammer": [(12528, 4, 174, 0), (9720, 257, 174, 39), (7128, 459, 174, 75)],
    "reactive-jammer": [
        (12528, 4, 174, 0), (8928, 695, 174, 50), (4680, 1651, 174, 109),
    ],
    "pss-jammer": [(12528, 4, 174, 0), (12528, 4, 174, 0), (12528, 4, 174, 0)],
    "tag-mob": [(12528, 4, 174, 0), (8928, 691, 174, 50), (7272, 1077, 174, 73)],
}


@pytest.fixture(scope="module")
def all_scenarios_report():
    return run_stress(output=None, smoke=True)


def test_smoke_points_pinned_for_every_scenario(all_scenarios_report):
    sweeps = {s["scenario"]: s for s in all_scenarios_report["sweeps"]}
    assert set(sweeps) == set(PINNED_SMOKE_POINTS)
    for scenario, expected in PINNED_SMOKE_POINTS.items():
        got = [
            (p["n_bits"], p["n_errors"], p["n_windows"], p["n_erased_windows"])
            for p in sweeps[scenario]["points"]
        ]
        assert got == expected, scenario
    assert all(c["passed"] for c in all_scenarios_report["noop_contracts"])
    assert all_scenarios_report["passed"]
