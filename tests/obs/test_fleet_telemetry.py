"""Fleet telemetry: workers ship span trees + counter deltas to the parent.

Tags run in worker processes (or in-process on the serial path); either
way each :class:`TagResult` must carry its serialised trace and counter
delta, and the :class:`FleetReport` must merge them into one per-stage
breakdown with summed counters.
"""

import pytest

from repro.fleet import Deployment, FleetRunner
from repro.obs import metrics, trace


def _small_deployment(n_tags=2):
    return Deployment.ring(n_tags=n_tags, bandwidth_mhz=1.4, n_frames=2)


@pytest.fixture(scope="module")
def traced_report():
    with FleetRunner(_small_deployment(), workers=1, seed=0, trace=True) as runner:
        return runner.run(payload_length=500)


def test_tag_results_carry_trace_and_metrics(traced_report):
    for tag in traced_report.tags:
        assert tag.trace, f"{tag.name} shipped no span tree"
        (run,) = tag.trace
        assert run["name"] == "system.run"
        assert any(c["name"] == "bsrx.demodulate" for c in run["children"])
        assert tag.metrics.get("bsrx.windows", 0) > 0


def test_stage_breakdown_merges_across_tags(traced_report):
    breakdown = traced_report.stage_breakdown
    for stage in ("system.run", "tag.sync", "bsrx.demodulate", "bsrx.demod"):
        assert stage in breakdown, f"missing merged stage {stage}"
    # Every tag enters system.run once, so the merged count is the fleet size.
    assert breakdown["system.run"]["count"] == traced_report.n_tags
    assert breakdown["system.run"]["wall_seconds"] > 0.0


def test_counters_sum_per_tag_deltas(traced_report):
    per_tag = sum(t.metrics.get("bsrx.windows", 0) for t in traced_report.tags)
    assert traced_report.counters["bsrx.windows"] == per_tag
    assert traced_report.counters["link.bits"] == sum(t.n_bits for t in traced_report.tags)


def test_format_table_includes_telemetry(traced_report):
    text = traced_report.format_table()
    assert "telemetry" in text.lower()
    assert "bsrx.demodulate" in text


def test_telemetry_lists_stages_by_self_time(traced_report):
    """Nested stages are not double-counted: rows sort by self time."""
    breakdown = traced_report.stage_breakdown
    demodulate = breakdown["bsrx.demodulate"]
    assert demodulate["self_seconds"] < demodulate["wall_seconds"]
    lines = traced_report.format_telemetry().splitlines()[1:]
    rows = [line for line in lines if " self " in line]
    assert len(rows) == len(breakdown)
    selfs = [float(line.split(" self ")[1].split()[0]) for line in rows]
    assert selfs == sorted(selfs, reverse=True)


def test_trace_off_ships_nothing():
    with FleetRunner(_small_deployment(), workers=1, seed=0) as runner:
        report = runner.run(payload_length=500)
    assert report.stage_breakdown == {}
    assert report.counters == {}
    for tag in report.tags:
        assert tag.trace == []
        assert tag.metrics == {}


def test_parallel_and_serial_telemetry_agree_on_counts():
    """Worker-process path merges the same stage counts as in-process."""
    with FleetRunner(_small_deployment(), workers=1, seed=0, trace=True) as runner:
        serial = runner.run(payload_length=500)
    with FleetRunner(_small_deployment(), workers=2, seed=0, trace=True) as runner:
        parallel = runner.run(payload_length=500)
    assert set(serial.stage_breakdown) == set(parallel.stage_breakdown)
    for stage, entry in serial.stage_breakdown.items():
        assert parallel.stage_breakdown[stage]["count"] == entry["count"]
    assert parallel.counters == serial.counters


def test_serial_path_shields_ambient_trace():
    """An enabled parent trace must not absorb in-process tag spans."""
    trace.disable()
    trace.reset()
    metrics.reset_metrics()
    with trace.tracing():
        with trace.span("driver"):
            with FleetRunner(
                _small_deployment(), workers=1, seed=0, trace=True
            ) as runner:
                report = runner.run(payload_length=500)
    (driver,) = trace.snapshot()
    assert driver.child("system.run") is None
    assert report.stage_breakdown["system.run"]["count"] == report.n_tags
    trace.reset()
    metrics.reset_metrics()
