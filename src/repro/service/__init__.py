"""Always-on fleet service with live telemetry (`repro serve`).

The batch fleet machinery simulates a deployment and exits; *ubiquitous*
passive communication means a receiver that never does.  This package
refactors the fleet into a long-lived service:

* :mod:`repro.service.queue` — bounded FIFO job queue with
  backpressure: submissions beyond the depth are shed, not buffered;
* :mod:`repro.service.service` — :class:`FleetService`: a worker-thread
  pool executing the same pure, pre-seeded tag-session tasks the batch
  engine runs (bit-identical results), with graceful drain and
  worker-pool reload that lose no accepted session;
* :mod:`repro.service.telemetry` — per-stage latency percentiles and
  periodic atomic JSON snapshots of the live :mod:`repro.obs` metrics;
* :mod:`repro.service.soak` — the deterministic soak harness behind
  ``repro serve --soak``: CRC-checkpointed cohort progress (kill the
  process, resume, bit-identical aggregates) plus the service-vs-batch
  equivalence gate, reported in ``SOAK_PR9.json``.

See DESIGN.md §18.
"""

from repro.service.queue import BackpressureShed, Job, JobQueue, QueueClosed
from repro.service.service import (
    FleetService,
    FleetTicket,
    ServiceError,
    SessionFailure,
    SessionTicket,
)
from repro.service.soak import (
    SoakError,
    build_soak_shards,
    default_spec,
    run_cohort_batch,
    run_cohort_service,
    run_soak,
)
from repro.service.telemetry import ServiceTelemetry, percentile

__all__ = [
    "BackpressureShed",
    "FleetService",
    "FleetTicket",
    "Job",
    "JobQueue",
    "QueueClosed",
    "ServiceError",
    "ServiceTelemetry",
    "SessionFailure",
    "SessionTicket",
    "SoakError",
    "build_soak_shards",
    "default_spec",
    "percentile",
    "run_cohort_batch",
    "run_cohort_service",
    "run_soak",
]
