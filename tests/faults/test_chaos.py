"""Chaos harness: report structure, monotone gating, JSON output."""

import json

import pytest

from repro.faults.chaos import CHAOS_KINDS, run_chaos
from repro.stress.perturbations import PERTURBATIONS

#: The chaos kinds whose goodput curve is gated monotone.
MONOTONE_KINDS = frozenset(k for k in CHAOS_KINDS if PERTURBATIONS[k].gated)


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    # One harness run shared by the assertions below; the fleet section is
    # exercised separately (and more cheaply) in test_engine_faults.
    path = tmp_path_factory.mktemp("chaos") / "chaos.json"
    report = run_chaos(
        output=str(path),
        smoke=True,
        kinds=["dropout", "jammer"],
        fleet=False,
    )
    return report, path


def test_smoke_report_structure_and_json(smoke_report):
    report, path = smoke_report
    on_disk = json.loads(path.read_text())
    assert on_disk["meta"]["mode"] == "smoke"
    assert on_disk["meta"]["kinds"] == ["dropout", "jammer"]
    assert on_disk["passed"] is True
    assert [s["kind"] for s in on_disk["sweeps"]] == ["dropout", "jammer"]
    for sweep in on_disk["sweeps"]:
        assert [p["severity"] for p in sweep["points"]] == [0.0, 0.5, 1.0]


def test_noop_contract_holds(smoke_report):
    report, _ = smoke_report
    contract = report["noop_contract"]
    assert contract["iq_identical"]
    assert contract["metrics_identical"]
    assert contract["passed"]


def test_goodput_monotone_and_erasures_appear(smoke_report):
    report, _ = smoke_report
    dropout = report["sweeps"][0]
    assert dropout["monotone_goodput"]
    goodputs = [p["goodput_bps"] for p in dropout["points"]]
    assert goodputs[-1] < goodputs[0]
    # Heavy dropout must surface as erasures, not as counted garbage bits.
    worst = dropout["points"][-1]
    assert worst["n_erased_windows"] > 0
    assert worst["n_bits"] < dropout["points"][0]["n_bits"]


def test_monotone_gate_covers_coverage_kinds_only():
    assert MONOTONE_KINDS < set(CHAOS_KINDS)
    assert "drift" not in MONOTONE_KINDS


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown chaos kind"):
        run_chaos(output=None, smoke=True, kinds=["gremlins"], fleet=False)


#: ``(n_bits, n_errors, n_windows, n_erased_windows)`` per kind at the smoke
#: severities (0, 0.5, 1.0), recorded before the chaos and stress harnesses
#: were merged into one sweep: the shared harness must reproduce them.
PINNED_SMOKE_POINTS = {
    "dropout": [(12528, 4, 174, 0), (8208, 1556, 174, 60), (6480, 2120, 174, 84)],
    "jammer": [(12528, 4, 174, 0), (12096, 1641, 174, 6), (11664, 3196, 174, 12)],
    "impulse": [(12528, 4, 174, 0), (10656, 295, 174, 26), (8928, 433, 174, 50)],
    "clipping": [(12528, 4, 174, 0), (12528, 4, 174, 0), (12528, 14, 174, 0)],
    "drift": [(12528, 4, 174, 0), (12528, 3, 174, 0), (8784, 287, 174, 52)],
}


@pytest.fixture(scope="module")
def all_kinds_report():
    return run_chaos(output=None, smoke=True, fleet=False)


def test_smoke_points_pinned_for_every_kind(all_kinds_report):
    sweeps = {s["kind"]: s for s in all_kinds_report["sweeps"]}
    assert list(sweeps) == list(CHAOS_KINDS)
    for kind, expected in PINNED_SMOKE_POINTS.items():
        got = [
            (p["n_bits"], p["n_errors"], p["n_windows"], p["n_erased_windows"])
            for p in sweeps[kind]["points"]
        ]
        assert got == expected, kind
        assert sweeps[kind]["monotone_required"] == (kind in MONOTONE_KINDS)
