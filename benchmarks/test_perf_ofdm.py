"""Pinned perf benchmark: disabled-tracing overhead on the OFDM hot path.

``demodulate_frame`` carries a permanent ``span()`` call; with tracing
off it must cost < 2 % of the frame.  A smoke run of the whole
``repro bench`` battery also writes its artifact.
"""

from __future__ import annotations

import os

from repro.bench import run_bench

#: Acceptance bar for disabled-mode tracing overhead on the hot path
#: (PR-4: permanent instrumentation must cost < 2 % when tracing is off).
#: Timing jitter on starved CI boxes can exceed the real overhead; the
#: env var loosens the bar there without weakening the pinned default.
MAX_TRACE_OVERHEAD = float(os.environ.get("REPRO_BENCH_MAX_TRACE_OVERHEAD", "0.02"))


def test_disabled_tracing_overhead_on_hot_path():
    """The permanent span() in demodulate_frame must be free when off."""
    import numpy as np

    from repro.bench import _bench_trace_overhead
    from repro.lte.params import LteParams

    params = LteParams.from_bandwidth(20.0)
    rng = np.random.default_rng(0)
    result = _bench_trace_overhead(params, repeats=10, rng=rng)
    overhead = result["overhead_fraction"]
    assert overhead < MAX_TRACE_OVERHEAD, (
        f"disabled-mode tracing overhead {overhead * 100:.2f}% exceeds the "
        f"{MAX_TRACE_OVERHEAD * 100:.0f}% bar on demodulate_frame"
    )


def test_bench_smoke_writes_artifact(tmp_path):
    out = tmp_path / "bench.json"
    results = run_bench(output=str(out), smoke=True)
    assert out.exists()
    assert results["trace_overhead"]["overhead_fraction"] < MAX_TRACE_OVERHEAD
    # The fleet is timed by wall clock; workers' CPU must show up there
    # (the old process_time() timing reported near-zero for this path).
    assert results["fleet"]["wall_seconds"] > 0.0
    assert results["fleet"]["worker_task_seconds"] > 0.0
