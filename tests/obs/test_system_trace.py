"""End-to-end trace test: one system run produces one well-formed tree.

The contract under test: with tracing enabled, a single
:meth:`LScatterSystem.run` produces a ``system.run`` root whose children
are the pipeline stages — each appearing **exactly once** for the whole
frame batch (merge-by-name collapses per-packet/per-frame re-entries into
one node), with child durations that sum consistently into their parent.
"""

import numpy as np
import pytest

from repro.core import LScatterSystem, SystemConfig
from repro.obs import metrics, trace

#: Stages that must each appear exactly once under system.run for a
#: successfully-synced decoded-reference run.
PIPELINE_STAGES = (
    "system.ambient",
    "system.channel",
    "tag.sync",
    "tag.schedule",
    "tag.reflect",
    "system.receive",
    "lte.decode",
    "system.reference",
    "bsrx.demodulate",
    "system.metrics",
)

#: Per-packet receiver stages nested under bsrx.demodulate.
BSRX_STAGES = ("bsrx.sync", "bsrx.phase_offset", "bsrx.equalise", "bsrx.demod")


@pytest.fixture(scope="module")
def traced_run():
    config = SystemConfig(
        bandwidth_mhz=1.4,
        n_frames=2,
        multipath=False,
        add_noise=False,
        sync_error_samples=0,
        reference_mode="decoded",
    )
    metrics.reset_metrics()
    with trace.collect() as box:
        report = LScatterSystem(config, rng=0).run(payload_length=500)
    counters = metrics.counters_snapshot()
    metrics.reset_metrics()
    return box.roots, report, counters


def test_every_pipeline_stage_exactly_once(traced_run):
    roots, report, _ = traced_run
    (run,) = roots
    assert run.name == "system.run"
    assert run.count == 1
    for stage in PIPELINE_STAGES:
        node = run.child(stage)
        assert node is not None, f"missing stage span {stage}"
        assert node.count == 1, f"{stage} entered {node.count} times"


def test_bsrx_stages_merge_per_packet_entries(traced_run):
    roots, report, _ = traced_run
    demod = roots[0].child("bsrx.demodulate")
    for stage in BSRX_STAGES:
        node = demod.child(stage)
        assert node is not None, f"missing receiver stage {stage}"
    # 2 frames = 4 half-frames; the receiver enters each stage once per
    # kernel call, for all of its packets and windows at once.  A 1.4 MHz
    # call stacks up to 3 half-frames, so 4 take one call of 3 and one of 1.
    for stage in ("bsrx.sync", "bsrx.equalise", "bsrx.demod"):
        assert demod.child(stage).count == 2, stage


def test_bsrx_stages_run_once_per_half_frame_at_10mhz():
    """From 3 MHz up a half-frame fills the stacking budget alone, so each
    kernel call, and each stage span, covers one half-frame."""
    config = SystemConfig(
        bandwidth_mhz=10.0,
        n_frames=2,
        multipath=False,
        add_noise=False,
        sync_error_samples=0,
    )
    with trace.collect() as box:
        LScatterSystem(config, rng=0).run(payload_length=500)
    (run,) = box.roots
    demod = run.child("bsrx.demodulate")
    for stage in ("bsrx.sync", "bsrx.equalise", "bsrx.demod"):
        assert demod.child(stage).count == 4, stage


def test_child_durations_sum_within_parent(traced_run):
    roots, _, _ = traced_run

    def check(node):
        if node.children:
            child_wall = sum(c.wall_seconds for c in node.children.values())
            assert child_wall <= node.wall_seconds + 1e-9, (
                f"children of {node.name} sum to {child_wall:.6f}s, "
                f"parent only {node.wall_seconds:.6f}s"
            )
        for child in node.children.values():
            check(child)

    (run,) = roots
    check(run)


def test_run_attrs_reflect_report(traced_run):
    roots, report, _ = traced_run
    (run,) = roots
    assert run.attrs["n_windows"] == report.n_windows
    assert run.attrs["n_bits"] == report.n_bits
    assert run.attrs["ber"] == pytest.approx(report.ber)
    assert run.attrs["sync_failed"] is False


def test_counters_match_report(traced_run):
    _, report, counters = traced_run
    assert counters["link.windows"] == report.n_windows
    assert counters["link.bits"] == report.n_bits
    assert counters.get("link.bit_errors", 0) == report.n_errors
    assert counters["bsrx.windows"] == report.n_windows
    assert "system.sync_failures" not in counters


def test_untraced_run_is_bit_identical_to_traced():
    """Instrumentation must observe, never perturb."""
    config = SystemConfig(
        bandwidth_mhz=1.4, n_frames=1, multipath=False, add_noise=False,
        sync_error_samples=0,
    )

    def run():
        return LScatterSystem(config, rng=3).run(payload_length=300)

    plain = run()
    with trace.collect():
        traced = run()
    assert (plain.n_bits, plain.n_errors, plain.n_windows) == (
        traced.n_bits,
        traced.n_errors,
        traced.n_windows,
    )
    assert plain.ber == traced.ber


def test_sync_failure_counted():
    # One frame ends inside the comparator's warm-up: no edge, no sync.
    config = SystemConfig(
        bandwidth_mhz=1.4,
        n_frames=1,
        multipath=False,
        add_noise=False,
        sync_mode="circuit",
    )
    metrics.reset_metrics()
    with trace.collect() as box:
        report = LScatterSystem(config, rng=0).run(payload_length=300)
    counters = metrics.counters_snapshot()
    metrics.reset_metrics()
    assert report.sync_failed
    assert counters["system.sync_failures"] == 1
    (run,) = box.roots
    assert run.child("tag.sync").attrs["sync_failed"] is True
    # The silent tag schedules nothing, so the schedule span never opens.
    assert run.child("tag.schedule") is None
