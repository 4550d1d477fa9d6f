"""The `repro substrates` comparison suite and its CLI wiring."""

import json

import pytest

from repro.cli import main
from repro.substrates.suite import format_report, run_suite


def test_run_suite_smoke_single_mode(tmp_path):
    out = tmp_path / "sub.json"
    report = run_suite(str(out), smoke=True, seed=0, substrate="crs-ook")
    assert report["passed"]
    assert list(report["modes"]) == ["crs-ook"]
    checks = report["modes"]["crs-ook"]
    assert checks["link"]["passed"]
    assert checks["noop"]["passed"]
    assert "ladder" not in checks  # smoke skips the distance ladder
    on_disk = json.loads(out.read_text())
    assert on_disk["passed"] is True


def test_run_suite_full_covers_every_mode(tmp_path):
    out = tmp_path / "sub.json"
    report = run_suite(str(out), smoke=False, seed=0)
    assert report["passed"]
    assert set(report["modes"]) == {
        "chip", "coded-pilot", "crs-fsk", "crs-ook", "srs-uplink",
    }
    for mode, checks in report["modes"].items():
        assert checks["ladder"]["passed"], mode
    assert report["modes"]["chip"]["identity"]["passed"]
    text = format_report(report)
    assert "substrates: PASSED" in text
    assert "srs-uplink" in text


def test_cli_substrates_smoke(tmp_path, capsys):
    out = tmp_path / "sub.json"
    status = main(
        [
            "substrates",
            "--smoke",
            "--substrate",
            "srs-uplink",
            "--output",
            str(out),
        ]
    )
    assert status == 0
    captured = capsys.readouterr().out
    assert "substrates: PASSED" in captured
    assert out.exists()


def test_cli_substrates_refuses_overwrite(tmp_path, capsys):
    out = tmp_path / "sub.json"
    out.write_text("{}")
    status = main(
        ["substrates", "--smoke", "--substrate", "chip", "--output", str(out)]
    )
    assert status == 2
    assert "already exists" in capsys.readouterr().err
    assert out.read_text() == "{}"  # untouched
    status = main(
        [
            "substrates",
            "--smoke",
            "--substrate",
            "chip",
            "--output",
            str(out),
            "--force",
        ]
    )
    assert status == 0


def test_cli_substrates_rejects_unknown_mode(capsys):
    status = main(["substrates", "--substrate", "morse"])
    assert status == 2
    assert "unknown substrate" in capsys.readouterr().err


def test_cli_simulate_substrate_flag(capsys):
    status = main(
        [
            "simulate",
            "--bandwidth",
            "1.4",
            "--frames",
            "2",
            "--payload",
            "500",
            "--substrate",
            "crs-fsk",
        ]
    )
    assert status == 0
    assert "chips carried" in capsys.readouterr().out


def test_cli_simulate_srs_with_decoded_reference_fails_usage(capsys):
    status = main(
        [
            "simulate",
            "--bandwidth",
            "1.4",
            "--frames",
            "2",
            "--substrate",
            "srs-uplink",
            "--decoded-reference",
        ]
    )
    assert status == 2
    assert "srs-uplink" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["fig04"])
def test_cli_experiment_substrate_rejected_for_unaware_experiments(
    experiment, capsys
):
    status = main(["experiment", experiment, "--substrate", "chip"])
    assert status == 2
    assert "does not take" in capsys.readouterr().err


def test_cli_experiment_subgrid_substrate_filter(capsys):
    status = main(
        ["experiment", "subgrid", "--seed", "0", "--substrate", "srs-uplink"]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "srs-uplink" in out
    assert "chip\t" not in out
