"""Span-tree exporters: Chrome trace-event JSON and text summaries.

The JSON follows the Trace Event Format's complete-event (``"ph": "X"``)
shape, loadable in ``chrome://tracing`` or https://ui.perfetto.dev.  Each
merged span becomes one event whose duration is its accumulated wall
time; because a parent's merged children are disjoint sub-intervals of
the parent's own window, summed child durations can never overflow the
parent event, so the nesting renders correctly even for per-packet spans
that were entered hundreds of times.
"""

from __future__ import annotations

import json

from repro.obs.metrics import metrics_snapshot
from repro.obs.trace import from_dict
from repro.utils.integrity import write_json

_ATTR_TYPES = (str, int, float, bool)


def _clean_attrs(attrs, extra=None):
    """JSON-safe args: keep scalars, stringify the rest."""
    out = {}
    for key, value in attrs.items():
        out[str(key)] = value if isinstance(value, _ATTR_TYPES) else str(value)
    if extra:
        out.update(extra)
    return out


def _emit(node, pid, tid, events):
    if isinstance(node, dict):
        node = from_dict(node)
    ts = node.start_offset * 1e6
    events.append(
        {
            "name": node.name,
            "ph": "X",
            "ts": ts,
            "dur": node.wall_seconds * 1e6,
            "pid": pid,
            "tid": tid,
            "args": _clean_attrs(
                node.attrs,
                {"count": node.count, "cpu_ms": round(node.cpu_seconds * 1e3, 3)},
            ),
        }
    )
    for child in node.children.values():
        _emit(child, pid, tid, events)


def chrome_trace_events(roots, pid=1, tid=1, label=None):
    """Trace events for one span forest on one (pid, tid) track.

    ``label`` adds a thread-name metadata event so multi-track traces
    (one per fleet tag) stay readable.
    """
    events = []
    if label is not None:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": str(label)},
            }
        )
    for node in roots:
        _emit(node, pid, tid, events)
    return events


def write_chrome_trace(path, roots=None, tracks=None):
    """Write a Chrome trace JSON file; returns the event count.

    ``roots`` is a single span forest (the common single-process case);
    ``tracks`` is an ordered ``{label: roots}`` mapping rendered as one
    thread per label (the fleet's per-tag trees).  Both may be given.
    """
    events = []
    if roots:
        events.extend(chrome_trace_events(roots, pid=1, tid=1, label="main"))
    if tracks:
        for index, (label, track_roots) in enumerate(tracks.items()):
            events.extend(
                chrome_trace_events(
                    track_roots, pid=1, tid=2 + index, label=label
                )
            )
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return len(events)


def write_live_snapshot(path, extra=None):
    """Atomically write a live metrics snapshot JSON; returns the path.

    Unlike the post-hoc exporters above, this is meant to be called
    repeatedly from a *running* process (the fleet service exports one
    every N completed sessions), so it goes through
    :func:`repro.utils.integrity.write_json`: a reader polling the path
    always sees a complete, parseable document — never a half-written
    one.  ``extra`` keys merge on top of the ``metrics`` section
    (:func:`repro.obs.metrics.metrics_snapshot`).
    """
    payload = {"metrics": metrics_snapshot()}
    if extra:
        payload.update(extra)
    return write_json(path, payload)


def format_span_tree(roots, indent=0):
    """Indented per-stage summary: wall/CPU milliseconds and entry count."""
    lines = []
    for node in roots:
        if isinstance(node, dict):
            node = from_dict(node)
        attrs = ""
        if node.attrs:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(node.attrs.items()))
            attrs = f"  [{pairs}]"
        lines.append(
            f"{'  ' * indent}{node.name:<{max(28 - 2 * indent, 1)}s} "
            f"wall {node.wall_seconds * 1e3:9.2f} ms  "
            f"cpu {node.cpu_seconds * 1e3:9.2f} ms  "
            f"x{node.count}{attrs}"
        )
        lines.extend(
            format_span_tree(node.children.values(), indent + 1)
        )
    return lines if indent else "\n".join(lines)
