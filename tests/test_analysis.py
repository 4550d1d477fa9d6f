"""Report-generator tests."""

import pytest

from repro.analysis import HEAVY_EXPERIMENTS, build_report, write_report


def test_light_report_contains_fast_experiments():
    text = build_report(experiment_ids=["table1", "fig19", "power"])
    assert "# LScatter reproduction report" in text
    assert "LScatter" in text
    assert "| system |" in text  # table1 rendered as a markdown table


def test_heavy_experiments_skipped_by_default():
    text = build_report(experiment_ids=["fig31"])
    assert "skipped" in text


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        build_report(experiment_ids=["fig99"])


def test_write_report(tmp_path):
    path = tmp_path / "report.md"
    written = write_report(path, experiment_ids=["table1"])
    assert written == path
    assert path.read_text().startswith("# LScatter reproduction report")


def test_heavy_set_covers_only_registered_ids():
    from repro.experiments import REGISTRY

    assert set(HEAVY_EXPERIMENTS) <= set(REGISTRY)


def test_heavy_set_is_exactly_the_iq_level_experiments():
    assert sorted(HEAVY_EXPERIMENTS) == [
        "fig08", "fig18", "fig31", "fig32",
        "fleetn", "netgrid", "stressgrid", "subgrid",
    ]


def test_default_report_renders_closed_form_sweeps_and_skips_iq_grids():
    text = build_report(experiment_ids=["fig16", "netgrid"])
    fig16, netgrid = text.split("## fig16")[1].split("## netgrid")
    assert "skipped" not in fig16
    assert "| hour |" in fig16
    assert "skipped: IQ-level experiment" in netgrid


def test_cli_report_command(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "r.md"
    assert main(["report", "--output", str(out)]) == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out
