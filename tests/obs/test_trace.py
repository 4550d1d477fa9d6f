"""Unit tests for the span tracer: modes, merging, serialisation, export."""

import json

import numpy as np
import pytest

from repro.obs import trace
from repro.obs.export import chrome_trace_events, format_span_tree, write_chrome_trace


@pytest.fixture(autouse=True)
def _clean_tracer():
    trace.disable()
    trace.reset()
    yield
    trace.disable()
    trace.reset()


def test_disabled_span_is_shared_noop_singleton():
    a = trace.span("x")
    b = trace.span("y", attr=1)
    assert a is b  # no per-call allocation on the disabled fast path
    with a as sp:
        sp.set(anything=1)
    assert trace.snapshot() == []


def test_enabled_span_records_time_and_attrs():
    trace.enable()
    with trace.span("stage", fixed=1) as sp:
        sp.set(n=42)
    (node,) = trace.snapshot()
    assert node.name == "stage"
    assert node.count == 1
    assert node.wall_seconds >= 0.0
    assert node.cpu_seconds >= 0.0
    assert node.attrs == {"fixed": 1, "n": 42}


def test_nesting_follows_call_structure():
    trace.enable()
    with trace.span("parent"):
        with trace.span("child"):
            with trace.span("grandchild"):
                pass
        with trace.span("sibling"):
            pass
    (parent,) = trace.snapshot()
    assert sorted(parent.children) == ["child", "sibling"]
    assert list(parent.children["child"].children) == ["grandchild"]


def test_reentry_merges_by_name():
    trace.enable()
    for _ in range(5):
        with trace.span("outer"):
            with trace.span("inner"):
                pass
    (outer,) = trace.snapshot()
    assert outer.count == 5
    assert outer.children["inner"].count == 5
    assert len(outer.children) == 1


def test_children_sum_within_parent_wall_time():
    trace.enable()
    with trace.span("parent"):
        for _ in range(3):
            with trace.span("a"):
                sum(range(1000))
            with trace.span("b"):
                sum(range(1000))
    (parent,) = trace.snapshot()
    child_total = sum(c.wall_seconds for c in parent.children.values())
    assert child_total <= parent.wall_seconds + 1e-9


def test_tracing_context_manager_restores_mode():
    assert not trace.is_enabled()
    with trace.tracing():
        assert trace.is_enabled()
        with trace.span("inside"):
            pass
    assert not trace.is_enabled()
    assert [n.name for n in trace.snapshot()] == ["inside"]


def test_collect_isolates_and_restores_ambient_trace():
    trace.enable()
    with trace.span("ambient"):
        with trace.collect() as box:
            with trace.span("worker"):
                pass
        # Back in the ambient trace: still enabled, same tree.
        with trace.span("after"):
            pass
    assert [n.name for n in box.roots] == ["worker"]
    (ambient,) = trace.snapshot()
    assert "worker" not in ambient.children
    assert "after" in ambient.children


def test_collect_when_disabled_restores_disabled():
    with trace.collect() as box:
        assert trace.is_enabled()
        with trace.span("inside"):
            pass
    assert not trace.is_enabled()
    assert [n.name for n in box.roots] == ["inside"]


def test_to_from_dict_roundtrip():
    trace.enable()
    with trace.span("a", k="v"):
        with trace.span("b"):
            pass
    (node,) = trace.snapshot()
    data = trace.to_dict(node)
    json.dumps(data)  # plain JSON-able types only
    rebuilt = trace.from_dict(data)
    assert rebuilt.name == "a"
    assert rebuilt.attrs == {"k": "v"}
    assert list(rebuilt.children) == ["b"]
    assert rebuilt.wall_seconds == node.wall_seconds


def test_flatten_stages_accumulates_across_trees():
    trace.enable()
    with trace.span("run"):
        with trace.span("stage"):
            pass
    roots_a = trace.snapshot()
    trace.reset()
    with trace.span("run"):
        with trace.span("stage"):
            pass
    roots_b = trace.snapshot()
    merged = trace.flatten_stages(roots_a)
    trace.flatten_stages(roots_b, into=merged)
    assert merged["run"]["count"] == 2
    assert merged["stage"]["count"] == 2


def _three_level_tree(trace):
    """``run > (stage > leaf, other)`` with real time spent at every level."""
    with trace.span("run"):
        sum(range(20000))
        with trace.span("stage"):
            sum(range(20000))
            with trace.span("leaf"):
                sum(range(20000))
        with trace.span("other"):
            sum(range(20000))
    return trace.snapshot()


def test_flatten_stages_self_times_sum_to_root_wall():
    trace.enable()
    (run,) = roots = _three_level_tree(trace)
    stage = run.children["stage"]
    stages = trace.flatten_stages(roots)
    assert stages["leaf"]["self_seconds"] == stages["leaf"]["wall_seconds"]
    assert stages["stage"]["self_seconds"] == pytest.approx(
        stage.wall_seconds - stage.children["leaf"].wall_seconds
    )
    assert stages["run"]["wall_seconds"] == run.wall_seconds
    for entry in stages.values():
        assert 0.0 < entry["self_seconds"] <= entry["wall_seconds"]
    total = sum(entry["self_seconds"] for entry in stages.values())
    assert total == pytest.approx(run.wall_seconds, rel=1e-9)


def test_flatten_stages_self_times_accumulate_across_trees():
    trace.enable()
    (run_a,) = roots_a = _three_level_tree(trace)
    trace.reset()
    (run_b,) = roots_b = _three_level_tree(trace)
    merged = trace.flatten_stages(roots_a)
    # Serialised trees (what fleet workers ship) flatten the same way.
    trace.flatten_stages([trace.to_dict(run_b)], into=merged)
    assert merged["leaf"]["count"] == 2
    total = sum(entry["self_seconds"] for entry in merged.values())
    assert total == pytest.approx(run_a.wall_seconds + run_b.wall_seconds, rel=1e-9)
    leaf = run_a.children["stage"].children["leaf"]
    assert merged["leaf"]["self_seconds"] == pytest.approx(
        leaf.wall_seconds + run_b.children["stage"].children["leaf"].wall_seconds
    )


def test_chrome_trace_events_shape_and_nesting():
    trace.enable()
    with trace.span("parent", n=3):
        with trace.span("child"):
            pass
    events = chrome_trace_events(trace.snapshot(), label="main")
    phases = [e["ph"] for e in events]
    assert phases == ["M", "X", "X"]
    by_name = {e["name"]: e for e in events if e["ph"] == "X"}
    parent, child = by_name["parent"], by_name["child"]
    assert child["ts"] >= parent["ts"]
    assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1.0
    assert parent["args"]["n"] == 3
    assert "cpu_ms" in parent["args"]


def test_write_chrome_trace_file(tmp_path):
    trace.enable()
    with trace.span("solo"):
        pass
    out = tmp_path / "trace.json"
    n = write_chrome_trace(str(out), roots=trace.snapshot())
    payload = json.loads(out.read_text())
    assert len(payload["traceEvents"]) == n
    assert payload["displayTimeUnit"] == "ms"


def test_write_chrome_trace_tracks_use_distinct_tids(tmp_path):
    trace.enable()
    with trace.span("s"):
        pass
    roots = trace.snapshot()
    out = tmp_path / "fleet.json"
    write_chrome_trace(
        str(out), tracks={"tag00": roots, "tag01": [trace.to_dict(roots[0])]}
    )
    payload = json.loads(out.read_text())
    tids = {e["tid"] for e in payload["traceEvents"]}
    assert len(tids) == 2


def test_format_span_tree_is_readable_text():
    trace.enable()
    with trace.span("top"):
        with trace.span("inner"):
            pass
    text = format_span_tree(trace.snapshot())
    assert "top" in text and "inner" in text
    assert "wall" in text and "cpu" in text


def test_attrs_cleaned_for_json():
    trace.enable()
    with trace.span("s") as sp:
        sp.set(array=np.arange(3), flag=True, n=np.int64(7))
    events = chrome_trace_events(trace.snapshot())
    json.dumps(events)  # numpy scalars/arrays must have been stringified
