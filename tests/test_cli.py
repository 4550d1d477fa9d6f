"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulate_command(capsys):
    code = main(
        [
            "simulate",
            "--bandwidth",
            "1.4",
            "--frames",
            "1",
            "--payload",
            "2000",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "throughput" in out
    assert "BER" in out


def test_survey_command(capsys):
    assert main(["survey", "--venue", "office"]) == 0
    out = capsys.readouterr().out
    assert "lte" in out and "wifi" in out and "lora" in out


def test_experiment_list(capsys):
    assert main(["experiment"]) == 0
    out = capsys.readouterr().out
    assert "fig23" in out and "power" in out


def test_experiment_runs_table1(capsys):
    assert main(["experiment", "table1"]) == 0
    assert "LScatter" in capsys.readouterr().out


def test_experiment_seed_zero_is_forwarded(monkeypatch):
    """An explicit --seed 0 must reach the experiment runner (not be
    dropped by a truthiness check)."""
    import repro.experiments.__main__ as experiments_main

    seen = {}

    def fake_main(argv):
        seen["argv"] = argv
        return 0

    monkeypatch.setattr(experiments_main, "main", fake_main)
    assert main(["experiment", "table1", "--seed", "0"]) == 0
    assert seen["argv"] == ["table1", "--seed", "0"]


def test_experiment_default_seed_omitted(monkeypatch):
    """Without --seed, the experiment's own default seed applies."""
    import repro.experiments.__main__ as experiments_main

    seen = {}

    def fake_main(argv):
        seen["argv"] = argv
        return 0

    monkeypatch.setattr(experiments_main, "main", fake_main)
    assert main(["experiment", "table1"]) == 0
    assert seen["argv"] == ["table1"]


def test_fleet_command(capsys):
    code = main(
        [
            "fleet",
            "--tags",
            "2",
            "--scheme",
            "tdma",
            "--seed",
            "0",
            "--frames",
            "2",
            "--payload",
            "2000",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "FleetReport" in out
    assert "tag00" in out and "tag01" in out
    assert "aggregate" in out


def test_fleet_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fleet", "--scheme", "csma"])


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["fleet", "--tags", "0"], "--tags must be >= 1"),
        (["fleet", "--workers", "0"], "--workers must be >= 1"),
        (["fleet", "--frames", "-1"], "--frames must be >= 1"),
        (["chaos", "--max-severity", "1.5"], "--max-severity must be in [0, 1]"),
        (["chaos", "--kinds", "dropout,gremlins"], "unknown chaos kind"),
        (["stress", "--max-intensity", "1.5"], "--max-intensity must be in [0, 1]"),
        (["stress", "--scenarios", "sweep-jammer,gremlins"], "unknown stress scenario"),
        (["simulate", "--frames", "0"], "n_frames must be a whole number >= 1"),
    ],
)
def test_argument_validation_is_one_clean_line(capsys, argv, fragment):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert err.startswith("repro: error:")
    assert err.count("\n") == 1  # one line, no traceback


def test_chaos_command_smoke(tmp_path, capsys):
    import json

    out_path = tmp_path / "chaos.json"
    code = main(
        [
            "chaos",
            "--smoke",
            "--kinds",
            "dropout",
            "--no-fleet",
            "--output",
            str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "no-op contract OK" in out
    assert "PASSED" in out
    report = json.loads(out_path.read_text())
    assert report["passed"] is True
    assert report["sweeps"][0]["kind"] == "dropout"


@pytest.mark.parametrize("command", ["chaos", "stress"])
def test_suite_commands_refuse_to_overwrite_without_force(
    tmp_path, capsys, command
):
    out_path = tmp_path / f"{command}.json"
    out_path.write_text("{}")
    code = main([command, "--smoke", "--output", str(out_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "already exists" in err
    assert "--force" in err
    assert out_path.read_text() == "{}"  # refused before running anything


def test_stress_command_smoke(tmp_path, capsys):
    import json

    out_path = tmp_path / "stress.json"
    code = main(
        [
            "stress",
            "--smoke",
            "--scenarios",
            "sweep-jammer",
            "--output",
            str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "no-op contracts OK" in out
    assert "monotone" in out
    assert "PASSED" in out
    report = json.loads(out_path.read_text())
    assert report["passed"] is True
    assert report["sweeps"][0]["scenario"] == "sweep-jammer"


@pytest.fixture()
def _clean_obs_state():
    from repro.obs import metrics, trace

    yield
    trace.disable()
    trace.reset()
    metrics.reset_metrics()


def test_trace_command_writes_chrome_json(tmp_path, capsys, _clean_obs_state):
    import json

    out_path = tmp_path / "trace.json"
    code = main(["trace", "--output", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace.probe" in out
    assert "counters:" in out
    assert f"wrote {out_path}" in out
    payload = json.loads(out_path.read_text())
    names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
    # The acceptance stages must all be present as nested spans.
    assert {"tag.sync", "bsrx.phase_offset", "bsrx.equalise", "bsrx.demod"} <= names


def test_trace_command_with_experiment(tmp_path, capsys, _clean_obs_state):
    out_path = tmp_path / "fig12.json"
    code = main(["trace", "fig12", "--output", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace.probe" in out  # probe rides along with the experiment
    assert out_path.exists()


def test_fleet_trace_flag_writes_per_tag_tracks(tmp_path, capsys, _clean_obs_state):
    import json

    out_path = tmp_path / "fleet_trace.json"
    code = main(
        [
            "fleet",
            "-n",
            "2",
            "--frames",
            "2",
            "--payload",
            "500",
            "--trace",
            "--trace-output",
            str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "telemetry" in out.lower()
    assert "bsrx.demodulate" in out
    payload = json.loads(out_path.read_text())
    tids = {e["tid"] for e in payload["traceEvents"]}
    assert len(tids) == 2  # one thread track per tag


def test_trace_refuses_to_overwrite_without_force(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    out_path.write_text("{}")
    assert main(["trace", "--output", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert "already exists" in err and "--force" in err
    assert out_path.read_text() == "{}"  # untouched


def test_trace_force_overwrites(tmp_path, capsys, _clean_obs_state):
    out_path = tmp_path / "trace.json"
    out_path.write_text("{}")
    assert main(["trace", "--output", str(out_path), "--force"]) == 0
    assert "traceEvents" in out_path.read_text()


def test_fleet_trace_refuses_to_overwrite_without_force(tmp_path, capsys):
    out_path = tmp_path / "fleet_trace.json"
    out_path.write_text("{}")
    code = main(
        [
            "fleet", "-n", "2", "--frames", "2", "--payload", "500",
            "--trace", "--trace-output", str(out_path),
        ]
    )
    assert code == 2
    assert "already exists" in capsys.readouterr().err
    assert out_path.read_text() == "{}"


def test_fleet_without_trace_ignores_stale_trace_output(tmp_path, capsys):
    """The guard only applies when --trace will actually write the file."""
    out_path = tmp_path / "fleet_trace.json"
    out_path.write_text("{}")
    code = main(
        [
            "fleet", "-n", "2", "--frames", "2", "--payload", "500",
            "--trace-output", str(out_path),
        ]
    )
    assert code == 0
    assert out_path.read_text() == "{}"


def test_console_scripts_declared_and_importable():
    """pyproject must expose the `repro` (and `lscatter`) console scripts,
    both pointing at a callable that exists."""
    import importlib
    import pathlib
    import re

    text = (
        pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    ).read_text()
    try:  # tomllib is 3.11+; fall back to a line scan on 3.10
        import tomllib

        scripts = tomllib.loads(text)["project"]["scripts"]
    except ImportError:
        scripts = dict(
            re.findall(r'^(\w+)\s*=\s*"([\w.]+:\w+)"$', text, flags=re.M)
        )
    assert scripts["repro"] == "repro.cli:main"
    assert scripts["lscatter"] == "repro.cli:main"
    module_name, _, attr = scripts["repro"].partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    assert callable(entry)


# -- network ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["network", "--tags", "0"], "--tags must be >= 1"),
        (["network", "--workers", "0"], "--workers must be >= 1"),
        (["network", "--frames", "0"], "--frames must be >= 1"),
        (["network", "--isd", "-5"], "--isd must be positive"),
        (["network", "--rings", "-1"], "--rings must be >= 0"),
        (
            ["network", "--layout", "grid", "--rows", "0"],
            "--rows/--cols must be >= 1",
        ),
    ],
)
def test_network_argument_validation(capsys, argv, fragment):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert err.startswith("repro: error:")
    assert err.count("\n") == 1


def test_network_rejects_unknown_layout_and_attach():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["network", "--layout", "ring"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["network", "--attach", "psychic"])


def test_network_smoke_writes_json(tmp_path, capsys):
    import json

    out_path = tmp_path / "network.json"
    code = main(
        [
            "network",
            "--smoke",
            "--tags",
            "3",
            "--isd",
            "120",
            "--output",
            str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "NetworkReport: 7 cell(s)" in out
    assert f"wrote {out_path}" in out
    summary = json.loads(out_path.read_text())
    assert summary["n_cells"] == 7
    assert summary["n_tags"] == 3
    assert len(summary["attachments"]) == 3
    # Only cells that actually serve a tag carry a per-cell report.
    assert 1 <= len(summary["cells"]) <= 3


def test_network_smoke_defaults_to_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["network", "--smoke", "--tags", "2", "--isd", "120"]) == 0
    out = capsys.readouterr().out
    assert "wrote artifacts/network_smoke.json" in out
    assert (tmp_path / "artifacts" / "network_smoke.json").exists()


def test_network_refuses_to_overwrite_without_force(tmp_path, capsys):
    out_path = tmp_path / "network.json"
    out_path.write_text("{}")
    assert main(
        ["network", "--smoke", "--tags", "2", "--output", str(out_path)]
    ) == 2
    err = capsys.readouterr().err
    assert "already exists" in err
    assert out_path.read_text() == "{}"  # untouched
