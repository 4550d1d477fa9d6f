"""Pipeline observability: stage-scoped tracing and a metrics registry.

Two orthogonal, process-local facilities:

* :mod:`repro.obs.trace` — hierarchical spans (``span("bsrx.phase_offset")``)
  with wall/CPU time, user attributes and merge-by-name aggregation, off by
  default with a strict no-op fast path;
* :mod:`repro.obs.metrics` — counters and gauges plus pull-style
  collectors (the sequence cache reports through one).

:mod:`repro.obs.export` turns span trees into Chrome trace-event JSON
(``chrome://tracing`` / Perfetto) and indented text summaries.
"""

from repro.obs.trace import (
    SpanNode,
    collect,
    disable,
    enable,
    flatten_stages,
    from_dict,
    is_enabled,
    reset,
    snapshot,
    span,
    to_dict,
    tracing,
)
from repro.obs.metrics import (
    counter_delta,
    counter_inc,
    counters_snapshot,
    gauge_set,
    metrics_snapshot,
    register_collector,
    reset_metrics,
)
from repro.obs.export import (
    chrome_trace_events,
    format_span_tree,
    write_chrome_trace,
)

__all__ = [
    "SpanNode",
    "collect",
    "disable",
    "enable",
    "flatten_stages",
    "from_dict",
    "is_enabled",
    "reset",
    "snapshot",
    "span",
    "to_dict",
    "tracing",
    "counter_delta",
    "counter_inc",
    "counters_snapshot",
    "gauge_set",
    "metrics_snapshot",
    "register_collector",
    "reset_metrics",
    "chrome_trace_events",
    "format_span_tree",
    "write_chrome_trace",
]
