"""Experiment-harness tests: registry plumbing and headline shapes."""

import numpy as np
import pytest

from repro.experiments import REGISTRY, run_experiment


def test_registry_covers_every_table_and_figure():
    expected = {
        "table1", "fig04", "fig08", "fig12", "fig16", "fig17", "fig18",
        "fig19", "fig21", "fig22", "fig23", "fig24", "fig26", "fig27",
        "fig28", "fig29", "fig30", "fig31", "fig32", "fig33", "power",
        "fleetn", "netgrid", "stressgrid", "subgrid",
    }
    assert set(REGISTRY) == expected


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError, match="unknown experiment 'fig99'"):
        run_experiment("fig99")


def test_table1_lscatter_unique_winner():
    result = run_experiment("table1")
    winners = [
        r["system"]
        for r in result.rows
        if r["ambient"] and r["continuous"] and r["ubiquitous"]
    ]
    assert winners == ["LScatter"]
    assert len(result.rows) == 16


def test_fig04_lte_always_occupied():
    result = run_experiment("fig04")
    lte = next(r for r in result.rows if r["curve"] == "lte-home")
    assert lte["median"] == 1.0
    assert lte["cdf@0.95"] == 0.0  # nothing below 1.0
    lora = next(r for r in result.rows if r["curve"] == "lora-home")
    assert lora["median"] < 0.05


def test_fig12_phase_offset_eliminated():
    result = run_experiment("fig12")
    rows = {r["constellation"]: r for r in result.rows}
    assert abs(rows["eliminated"]["mean_rotation_deg"]) < 2.0
    assert rows["eliminated"]["decision_errors"] == 0
    assert rows["phase-offset"]["mean_rotation_deg"] == pytest.approx(35.0)


def test_fig19_matrix_shape():
    result = run_experiment("fig19")
    # Availability collapses with eNodeB distance...
    avail = [r["sync_availability"] for r in result.rows]
    assert all(b <= a + 1e-9 for a, b in zip(avail, avail[1:]))
    # ...and close-range throughput approaches the paper's headline.
    assert result.rows[0]["ue@1ft_mbps"] == pytest.approx(13.9, rel=0.05)


def test_fig23_ordering_and_crossover():
    result = run_experiment("fig23")
    for row in result.rows:
        assert row["lscatter_mbps"] > row["wifi_backscatter_mbps"]
        assert row["lscatter_mbps"] > row["symbol_lte_mbps"]
    first, last = result.rows[0], result.rows[-1]
    assert first["wifi_backscatter_mbps"] > first["symbol_lte_mbps"]
    assert last["symbol_lte_mbps"] > last["wifi_backscatter_mbps"]


def test_fig24_ber_bands():
    result = run_experiment("fig24")
    by_d = {r["distance_ft"]: r for r in result.rows}
    assert by_d[40]["lscatter_ber"] < 2e-3
    assert by_d[140]["lscatter_ber"] < 2e-2


def test_fig30_monotone_with_anchor():
    result = run_experiment("fig30")
    ranges = [r["max_tag_to_ue_ft"] for r in result.rows]
    assert all(b < a for a, b in zip(ranges, ranges[1:]))
    assert result.rows[0]["max_tag_to_ue_ft"] == pytest.approx(320, rel=0.25)


def test_fig33_update_rates():
    result = run_experiment("fig33")
    rates = [r["update_rate_sps"] for r in result.rows]
    assert rates[0] > 120 and rates[-1] < 15
    assert all(b < a for a, b in zip(rates, rates[1:]))


def test_power_totals():
    result = run_experiment("power")
    by_bw = {r["bandwidth_mhz"]: r for r in result.rows}
    # §4.8 anchors: ~4.65 mW at 20 MHz COTS, ~0.68 mW at 1.4 MHz.
    assert by_bw[20.0]["total_uw"] == pytest.approx(4649, rel=0.01)
    assert by_bw[1.4]["total_uw"] == pytest.approx(684, rel=0.01)
    assert by_bw[20.0]["total_ring_osc_uw"] < 200


def test_format_table_renders():
    result = run_experiment("table1")
    text = result.format_table()
    assert "LScatter" in text
    assert text.count("\n") == len(result.rows)
