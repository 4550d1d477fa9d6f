"""Process-local metrics registry: counters, gauges and collectors.

Push-style instruments for event counts the code observes as it runs
(erasures, sync failures, fault activations, engine retries), plus
pull-style *collectors* for state that already lives elsewhere — the
sequence cache registers one, so cache hit rates appear in every snapshot
without a per-lookup counter in the memoisation hot path.

Everything is process-local and always on: incrementing a counter is one
dict update under a lock, cheap enough for stage-level (not per-sample)
call sites.  Fleet workers ship a before/after counter delta back to the
parent (:func:`counter_delta`), which sums them into the fleet report.
"""

from __future__ import annotations

import threading

_LOCK = threading.Lock()
_counters = {}
_gauges = {}
_collectors = {}


def counter_inc(name, value=1):
    """Add ``value`` (default 1) to the counter ``name``."""
    with _LOCK:
        _counters[name] = _counters.get(name, 0) + value


def gauge_set(name, value):
    """Set the gauge ``name`` to ``value`` (last write wins)."""
    with _LOCK:
        _gauges[name] = value


def register_collector(name, fn):
    """Register a pull-style collector: ``fn()`` -> dict of numbers.

    Collectors run at snapshot time under ``collected.<name>.<key>``;
    re-registering a name replaces the previous collector (module
    reloads in tests stay idempotent).
    """
    with _LOCK:
        _collectors[name] = fn


def counters_snapshot():
    """Flat copy of the counters (the deltas fleet workers ship back)."""
    with _LOCK:
        return dict(_counters)


def metrics_snapshot():
    """Full snapshot: counters, gauges and collected values."""
    with _LOCK:
        out = {"counters": dict(_counters), "gauges": dict(_gauges)}
        collectors = list(_collectors.items())
    collected = {}
    for name, fn in collectors:
        try:
            collected[name] = dict(fn())
        except Exception as exc:  # a broken collector must not sink a run
            collected[name] = {"error": f"{type(exc).__name__}: {exc}"}
    out["collected"] = collected
    return out


def reset_metrics():
    """Zero counters and gauges (collectors stay registered)."""
    with _LOCK:
        _counters.clear()
        _gauges.clear()


def counter_delta(before, after):
    """Per-counter ``after - before``, dropping zero deltas.

    ``before``/``after`` are :func:`counters_snapshot` dicts; used by
    fleet workers so a long-lived worker process reports only what *this*
    task contributed.
    """
    delta = {}
    for name, value in after.items():
        diff = value - before.get(name, 0)
        if diff:
            delta[name] = diff
    return delta
