"""Live service telemetry: per-stage latency percentiles + snapshots.

The service records one latency sample per completed session for each
pipeline stage it controls — ``queue_wait`` (admission to worker pickup),
``execute`` (the tag-session simulation itself) and ``session`` (their
sum) — and periodically exports an atomic JSON snapshot combining those
percentiles with the global :mod:`repro.obs.metrics` registry and the
queue's admission counters.  Snapshots are written through
:func:`repro.obs.export.write_live_snapshot`, so a dashboard (or the CI
artifact step) can poll the file while the service is busy and always
read a complete document.

Latency numbers are *measured*, not deterministic — they live in the
soak report's ``operations`` section, never in the bit-identity-gated
``aggregates``.
"""

from __future__ import annotations

import math
import threading
import time

from repro.obs.export import write_live_snapshot
from repro.utils.validation import require_whole

#: Stages the service times for every session.
STAGES = ("queue_wait", "execute", "session")


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (``None`` when empty).

    Nearest-rank keeps every reported number an actually-observed
    latency, which reads better in a soak report than interpolated
    values that no session experienced.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class ServiceTelemetry:
    """Latency samples plus periodic snapshot export for one service."""

    def __init__(self, snapshot_path=None, snapshot_every=16):
        require_whole("snapshot_every", snapshot_every, minimum=1)
        self.snapshot_path = snapshot_path
        self.snapshot_every = int(snapshot_every)
        self._lock = threading.Lock()
        self._samples = {stage: [] for stage in STAGES}
        self._since_export = 0
        self.exports = 0
        self.started_at = time.perf_counter()

    def record_session(self, queue_wait_seconds, execute_seconds):
        """Record one completed session; returns True when an export is due."""
        with self._lock:
            self._samples["queue_wait"].append(float(queue_wait_seconds))
            self._samples["execute"].append(float(execute_seconds))
            self._samples["session"].append(
                float(queue_wait_seconds) + float(execute_seconds)
            )
            self._since_export += 1
            return (
                self.snapshot_path is not None
                and self._since_export >= self.snapshot_every
            )

    def stage_percentiles(self):
        """``{stage: {count, mean, p50, p99, max}}`` over every sample."""
        with self._lock:
            samples = {stage: list(s) for stage, s in self._samples.items()}
        out = {}
        for stage, values in samples.items():
            out[stage] = {
                "count": len(values),
                "mean_seconds": (
                    sum(values) / len(values) if values else None
                ),
                "p50_seconds": percentile(values, 50),
                "p99_seconds": percentile(values, 99),
                "max_seconds": max(values) if values else None,
            }
        return out

    def export(self, service_section):
        """Write one snapshot now (no-op without a path); returns the path.

        ``service_section`` is the service's own view — state, workers,
        queue counters — merged alongside the latency percentiles and the
        global metrics registry.
        """
        if self.snapshot_path is None:
            return None
        payload = dict(service_section)
        payload["latency"] = self.stage_percentiles()
        payload["uptime_seconds"] = time.perf_counter() - self.started_at
        path = write_live_snapshot(self.snapshot_path, extra={"service": payload})
        with self._lock:
            self._since_export = 0
            self.exports += 1
        return path
