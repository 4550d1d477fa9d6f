"""Pinned perf benchmark: disabled-tracing overhead on the OFDM hot path.

``demodulate_frame`` carries a permanent ``span()`` call; with tracing
off it must cost < 2 % of the frame.
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks.conftest import mean_call_seconds, min_call_seconds
from repro.lte import ofdm
from repro.lte.params import LteParams
from repro.obs import trace as obs_trace

#: Acceptance bar for disabled-mode tracing overhead on the hot path
#: (PR-4: permanent instrumentation must cost < 2 % when tracing is off).
#: Timing jitter on starved CI boxes can exceed the real overhead; the
#: env var loosens the bar there without weakening the pinned default.
MAX_TRACE_OVERHEAD = float(os.environ.get("REPRO_BENCH_MAX_TRACE_OVERHEAD", "0.02"))


def test_disabled_tracing_overhead_on_hot_path():
    """The permanent span() in demodulate_frame must be free when off.

    A frame-vs-frame ratio cannot resolve one global check under
    percent-level FFT jitter, so the fraction divides the measured cost
    of a disabled span (the call, the enabled check, the no-op context
    manager) by the fastest bare frame demod.
    """
    params = LteParams.from_bandwidth(20.0)
    rng = np.random.default_rng(0)
    n = params.samples_per_frame
    samples = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert not obs_trace.is_enabled()

    def noop_span():
        with obs_trace.span("noop"):
            pass

    bare = min_call_seconds(
        lambda: ofdm._demodulate_frame(params, samples), repeats=30
    )
    overhead = mean_call_seconds(noop_span) / bare
    assert overhead < MAX_TRACE_OVERHEAD, (
        f"disabled-mode tracing overhead {overhead * 100:.2f}% exceeds the "
        f"{MAX_TRACE_OVERHEAD * 100:.0f}% bar on demodulate_frame"
    )
