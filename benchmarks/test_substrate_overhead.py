"""Pinned perf benchmark: default-substrate dispatch must be free.

The PR-10 pluggable-substrate refactor routes every pipeline stage
through a registry-dispatched object.  For the default chip mode each
hook just forwards to the pre-refactor stage object, so the added cost —
one registry lookup plus one substrate construction with its capability
guards — must stay under 2 % of the direct demod time, the same bar the
PR-4 tracing instrumentation is held to.  On starved CI boxes the env
var loosens the bar without weakening the pinned default.
"""

from __future__ import annotations

import os

import numpy as np

from benchmarks.conftest import mean_call_seconds, min_call_seconds
from repro.core import LScatterSystem, SystemConfig
from repro.substrates import get_substrate

#: Acceptance bar for chip-substrate dispatch on the demod hot path.
MAX_SUBSTRATE_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_MAX_SUBSTRATE_OVERHEAD", "0.02")
)


def test_default_substrate_dispatch_overhead():
    config = SystemConfig(
        bandwidth_mhz=1.4,
        n_frames=2,
        reference_mode="genie",
        sync_mode="model",
        multipath=False,
        add_noise=False,
    )
    system = LScatterSystem(config, rng=0)
    front = system.run_frontend(payload_length=2000)

    def direct():
        return system.demodulator.demodulate(
            front.shifted_rx, front.reference, front.half_starts
        )

    # Bit-identity first: a dispatch that changes the result is not worth
    # timing.
    a, b = direct(), system.substrate.demodulate(front)
    np.testing.assert_array_equal(a.bits, b.bits)
    np.testing.assert_array_equal(a.soft, b.soft)
    np.testing.assert_array_equal(a.starts, b.starts)

    # Frame-level jitter swamps a couple of Python calls, so the fraction
    # divides the measured dispatch cost by the fastest direct demod.
    dispatch = mean_call_seconds(lambda: get_substrate("chip")(system))
    overhead = dispatch / min_call_seconds(direct, repeats=15)
    assert overhead < MAX_SUBSTRATE_OVERHEAD, (
        f"chip-substrate dispatch overhead {overhead * 100:.2f}% exceeds "
        f"the {MAX_SUBSTRATE_OVERHEAD * 100:.0f}% bar vs the direct demod "
        "call"
    )
