"""Stage-scoped hierarchical tracing for the simulation pipeline.

Usage at an instrumentation site::

    from repro.obs.trace import span

    with span("bsrx.phase_offset") as sp:
        estimate = ...
        sp.set(offset=estimate.offset)

Design rules:

* **Off by default, strictly cheap when off.**  When tracing is disabled
  ``span()`` returns one shared no-op singleton — no allocation, no clock
  reads, no contextvar traffic.  ``benchmarks/test_perf_ofdm.py`` pins
  the per-call cost (< 2 % of a single ``demodulate_frame``), so hot
  paths can stay instrumented permanently.
* **Merge by name.**  Re-entering a span with the same name under the
  same parent accumulates into one node (``count`` tracks entries, wall
  and CPU time sum).  A per-packet stage therefore appears *once per
  enclosing batch* with its total cost, which is the granularity the
  fleet telemetry and the end-to-end trace test want — and merged nodes
  still nest correctly in the Chrome trace export, because the summed
  duration of disjoint child segments cannot exceed the parent window.
* **Context-var scoped.**  The active span lives in a ``contextvars``
  variable, so nesting follows the call stack and threads/async contexts
  cannot corrupt each other's trees.
* **Serialisable.**  ``to_dict``/``from_dict`` round-trip a span tree
  through plain dicts; fleet workers send their trees back to the parent
  through the process-pool result pickle (see
  :func:`repro.fleet.runner._simulate_tag`).

Timing note: ``wall_seconds`` is ``time.perf_counter`` (what a user
waits), ``cpu_seconds`` is ``time.process_time`` (what this process
computed).  For process-pool stages the two diverge — that gap is the
point of recording both: a parent's CPU time never sees its workers'.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from dataclasses import dataclass, field


@dataclass
class SpanNode:
    """One merged span: a named stage under one parent."""

    name: str
    #: Wall-clock seconds of the first entry, relative to the trace epoch.
    start_offset: float = 0.0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    #: Number of times the span was entered (merged entries).
    count: int = 0
    attrs: dict = field(default_factory=dict)
    #: name -> child SpanNode, in first-entry order.
    children: dict = field(default_factory=dict)

    def child(self, name):
        """The child span named ``name``, or ``None``."""
        return self.children.get(name)


class _TraceState:
    """Mutable per-process trace storage (swapped wholesale by collect)."""

    __slots__ = ("root", "epoch")

    def __init__(self):
        self.root = SpanNode(name="<root>")
        self.epoch = time.perf_counter()


_enabled = False
_state = _TraceState()
_current = contextvars.ContextVar("repro_obs_current_span", default=None)


class _NoopSpan:
    """Shared do-nothing span: the disabled-mode fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self


_NOOP = _NoopSpan()


class _Span:
    """Live span handle; merges into the parent's same-named child."""

    __slots__ = ("node", "_token", "_t0_wall", "_t0_cpu")

    def __init__(self, name, attrs):
        parent = _current.get() or _state.root
        node = parent.children.get(name)
        if node is None:
            node = SpanNode(name=name)
            parent.children[name] = node
        if attrs:
            node.attrs.update(attrs)
        self.node = node

    def __enter__(self):
        node = self.node
        self._t0_wall = time.perf_counter()
        self._t0_cpu = time.process_time()
        if node.count == 0:
            node.start_offset = self._t0_wall - _state.epoch
        self._token = _current.set(node)
        return self

    def __exit__(self, exc_type, exc, tb):
        _current.reset(self._token)
        node = self.node
        node.wall_seconds += time.perf_counter() - self._t0_wall
        node.cpu_seconds += time.process_time() - self._t0_cpu
        node.count += 1
        return False

    def set(self, **attrs):
        """Attach user attributes (n_windows, BER, cache hits, ...)."""
        self.node.attrs.update(attrs)
        return self


def span(name, **attrs):
    """Open a traced stage; a no-op singleton when tracing is disabled."""
    if not _enabled:
        return _NOOP
    return _Span(name, attrs)


def enable():
    """Turn tracing on (spans start recording)."""
    global _enabled
    _enabled = True


def disable():
    """Turn tracing off (``span()`` reverts to the no-op fast path)."""
    global _enabled
    _enabled = False


def is_enabled():
    return _enabled


def reset():
    """Drop every recorded span and restart the trace epoch."""
    global _state
    _state = _TraceState()


def snapshot():
    """The recorded top-level spans, in first-entry order."""
    return list(_state.root.children.values())


@contextlib.contextmanager
def tracing(fresh=True):
    """Enable tracing for a block, restoring the previous mode after.

    ``fresh=True`` (default) also resets the trace first, so the block
    observes only its own spans.
    """
    global _enabled
    prev = _enabled
    if fresh:
        reset()
    _enabled = True
    try:
        yield
    finally:
        _enabled = prev


class Collection:
    """Result box for :func:`collect`: the isolated trace's root spans."""

    def __init__(self):
        self.roots = []


@contextlib.contextmanager
def collect():
    """Trace a block into an isolated tree, shielding the ambient trace.

    Installs a fresh enabled trace state for the block and restores the
    previous state (enabled or not, mid-span or not) afterwards; the
    block's top-level spans land in the yielded :class:`Collection`.
    This is how fleet workers trace a per-tag stage without clobbering a
    parent trace when the engine falls back to the serial in-process
    path.
    """
    global _enabled, _state
    prev_state, prev_enabled = _state, _enabled
    token = _current.set(None)
    _state = _TraceState()
    _enabled = True
    box = Collection()
    try:
        yield box
    finally:
        box.roots = list(_state.root.children.values())
        _state, _enabled = prev_state, prev_enabled
        _current.reset(token)


def to_dict(node):
    """Serialise a span tree to plain picklable/JSON-able dicts."""
    return {
        "name": node.name,
        "start_offset": node.start_offset,
        "wall_seconds": node.wall_seconds,
        "cpu_seconds": node.cpu_seconds,
        "count": node.count,
        "attrs": dict(node.attrs),
        "children": [to_dict(child) for child in node.children.values()],
    }


def from_dict(data):
    """Inverse of :func:`to_dict`."""
    node = SpanNode(
        name=data["name"],
        start_offset=data["start_offset"],
        wall_seconds=data["wall_seconds"],
        cpu_seconds=data["cpu_seconds"],
        count=data["count"],
        attrs=dict(data["attrs"]),
    )
    for child in data["children"]:
        node.children[child["name"]] = from_dict(child)
    return node


def flatten_stages(roots, into=None):
    """Aggregate span trees into ``{name: {wall, self, cpu, count}}``.

    Same-named spans at any depth sum together — the per-stage breakdown
    the fleet report merges across tags.  ``wall_seconds`` is inclusive;
    ``self_seconds`` is the wall time minus the children's, so a stage
    nested in another is counted once and the self times of one tree sum
    to its roots' wall time.  ``into`` accumulates across calls (pass the
    same dict for every tag).
    """
    stages = into if into is not None else {}
    nodes = list(roots)
    while nodes:
        node = nodes.pop()
        if isinstance(node, dict):
            node = from_dict(node)
        entry = stages.setdefault(
            node.name,
            {"wall_seconds": 0.0, "self_seconds": 0.0, "cpu_seconds": 0.0, "count": 0},
        )
        children = node.children.values()
        entry["wall_seconds"] += node.wall_seconds
        entry["self_seconds"] += node.wall_seconds - sum(
            child.wall_seconds for child in children
        )
        entry["cpu_seconds"] += node.cpu_seconds
        entry["count"] += node.count
        nodes.extend(children)
    return stages
