"""The long-lived fleet service: job queue, worker pool, drain/reload.

:class:`FleetService` turns the batch-run fleet machinery into an
always-on process: tag-session requests are admitted through a bounded
:class:`~repro.service.queue.JobQueue` (submissions beyond the depth are
shed — see the queue's backpressure contract), executed by a pool of
worker threads, and their results collected by ticket.  Sessions are the
same pure, pre-seeded payloads the batch engine runs
(:class:`~repro.fleet.runner.TagTask` + :func:`_simulate_tag`), so a
fleet scheduled through the service is bit-identical to the equivalent
:meth:`FleetRunner.run` batch — the soak harness gates exactly that.

Lifecycle::

    idle --start()--> running --drain()--> drained --reopen()--> running
                         |                                |
                      reload()  (swap worker pool,    shutdown() --> stopped
                         |       queued jobs kept)
                         v
                      running

``drain`` closes the queue and blocks until every accepted session has a
result; ``reload`` finishes in-flight sessions, swaps the worker pool for
a fresh one of the same size and keeps queued jobs untouched — no session
is lost or duplicated across either, which the service tests pin.

Worker threads (not processes) are the right pool here: session results
are pure functions of their task, numpy releases the GIL in the DSP hot
path, and the in-memory ambient stage can be shared without scratch
spills.  Process-level fan-out stays the batch engine's job.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.fleet.engine import EngineTelemetry, TaskFailure
from repro.fleet.runner import _simulate_tag
from repro.obs import metrics as obs_metrics
from repro.service.queue import BackpressureShed, JobQueue, QueueClosed
from repro.service.telemetry import ServiceTelemetry
from repro.utils.validation import require_whole


class ServiceError(RuntimeError):
    """Lifecycle misuse or an exhausted wait inside the service."""


@dataclass(frozen=True)
class SessionTicket:
    """Claim check for one submitted session."""

    job_id: int


@dataclass
class SessionFailure:
    """Result slot for a session whose execution raised."""

    job_id: int
    error: str


@dataclass
class FleetTicket:
    """Claim check for a whole fleet scheduled as individual sessions."""

    runner: object
    schedule: object
    tickets: list


class FleetService:
    """Always-on tag-session service over the fleet substrates."""

    def __init__(
        self,
        workers=1,
        max_queue_depth=64,
        snapshot_path=None,
        snapshot_every=16,
        poll_seconds=0.05,
    ):
        require_whole("workers", workers, minimum=1)
        require_whole("max_queue_depth", max_queue_depth, minimum=1)
        self.workers = int(workers)
        self.poll_seconds = float(poll_seconds)
        self.queue = JobQueue(max_queue_depth)
        self.telemetry = ServiceTelemetry(
            snapshot_path=snapshot_path, snapshot_every=snapshot_every
        )
        self.state = "idle"
        self.reloads = 0
        self.drains = 0
        self._results = {}
        self._result_ready = threading.Condition(threading.Lock())
        #: Sessions with a result (success or failure) — compared against
        #: ``queue.submitted`` by drain, so a popped-but-unfinished job
        #: can never be mistaken for done.
        self._completed = 0
        self._failed = 0
        self._stop = threading.Event()
        self._threads = []

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        """Spawn the worker pool, from ``idle`` only.

        A drained service keeps its workers alive; :meth:`reopen` is what
        re-admits, so a second pool never outlives :meth:`shutdown`.
        """
        if self.state == "stopped":
            raise ServiceError("service is stopped; create a new one")
        if self.state != "idle":
            raise ServiceError(
                f"service is already {self.state}; a drained service "
                "re-admits through reopen()"
            )
        self._spawn_workers(self.workers)
        self.state = "running"
        return self

    def _spawn_workers(self, workers):
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(self._stop,),
                name=f"fleet-service-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def drain(self, timeout=300.0):
        """Close the door, finish everything accepted, export a snapshot.

        After drain the service is ``drained``: queued work is done,
        workers are alive and idle, and :meth:`reopen` re-admits.
        """
        if self.state not in ("running", "draining"):
            raise ServiceError(f"cannot drain from state {self.state!r}")
        self.state = "draining"
        self.queue.close()
        obs_metrics.counter_inc("service.drains")
        self.drains += 1
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._result_ready:
            while self._completed < self.queue.submitted:
                if deadline is not None and time.monotonic() > deadline:
                    raise ServiceError(
                        f"drain timed out with "
                        f"{self.queue.submitted - self._completed} "
                        f"session(s) outstanding"
                    )
                self._result_ready.wait(self.poll_seconds)
        self.state = "drained"
        self.telemetry.export(self._service_section())
        return self

    def reopen(self):
        """Re-admit submissions after a drain."""
        if self.state != "drained":
            raise ServiceError(f"cannot reopen from state {self.state!r}")
        self.queue.reopen()
        self.state = "running"
        return self

    def reload(self):
        """Graceful pool swap: finish in-flight, keep the queue, restart.

        The fresh pool has the same size; queued jobs are untouched and new
        submissions keep being admitted while the pool swaps (they simply
        queue up until the fresh workers pull them).
        """
        if self.state not in ("running", "draining", "drained"):
            raise ServiceError(f"cannot reload from state {self.state!r}")
        self._stop.set()
        self.queue.wake_all()
        for thread in self._threads:
            thread.join()
        self._spawn_workers(self.workers)
        self.reloads += 1
        obs_metrics.counter_inc("service.reloads")
        return self

    def shutdown(self):
        """Stop the pool and close the queue; idempotent."""
        if self.state == "stopped":
            return self
        self.queue.close()
        self._stop.set()
        self.queue.wake_all()
        for thread in self._threads:
            thread.join()
        self._threads = []
        self.telemetry.export(self._service_section())
        self.state = "stopped"
        return self

    def __enter__(self):
        if self.state == "idle":
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.shutdown()
        return False

    # -- sessions ----------------------------------------------------------------

    def submit(self, fn, task):
        """Admit one session ``fn(task)``; returns a :class:`SessionTicket`.

        Raises :class:`~repro.service.queue.BackpressureShed` when the
        queue is at depth (the session is *not* accepted — retry or drop)
        and :class:`~repro.service.queue.QueueClosed` while draining.
        """
        if self.state not in ("running", "draining"):
            raise ServiceError(
                f"cannot submit in state {self.state!r}; start() the service"
            )
        try:
            job = self.queue.submit((fn, task))
        except BackpressureShed:
            obs_metrics.counter_inc("service.sessions_shed")
            raise
        except QueueClosed:
            obs_metrics.counter_inc("service.sessions_rejected")
            raise
        obs_metrics.counter_inc("service.sessions_submitted")
        obs_metrics.gauge_set("service.queue_depth", self.queue.depth)
        return SessionTicket(job_id=job.job_id)

    def result(self, ticket, timeout=60.0):
        """Block for one session's result; pops it from the result map.

        Returns the session's value, or a :class:`SessionFailure` if its
        execution raised (the caller decides whether that is fatal).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._result_ready:
            while ticket.job_id not in self._results:
                if deadline is not None and time.monotonic() > deadline:
                    raise ServiceError(
                        f"timed out waiting for session {ticket.job_id}"
                    )
                self._result_ready.wait(self.poll_seconds)
            return self._results.pop(ticket.job_id)

    # -- fleet scheduling --------------------------------------------------------

    def submit_fleet(self, runner, payload_length=20000):
        """Schedule a whole fleet as per-tag sessions; returns a ticket.

        The runner's :meth:`~repro.fleet.runner.FleetRunner.plan` fixes
        the MAC schedule and per-tag seeds up front, so however the
        sessions interleave with other tenants in the queue, the results
        are bit-identical to ``runner.run()``.  A shed submission is
        retried (with a tiny backoff) rather than dropped — backpressure
        slows a fleet down, it never silently loses a tag.
        """
        plan = runner.plan(payload_length=payload_length, parallel=False)
        tickets = []
        for task in plan.tasks:
            while True:
                try:
                    tickets.append(self.submit(_simulate_tag, task))
                    break
                except BackpressureShed:
                    if self._stop.is_set():
                        raise ServiceError(
                            "service stopped while a fleet submission was "
                            "backed off"
                        )
                    time.sleep(self.poll_seconds / 10.0)
        return FleetTicket(
            runner=runner, schedule=plan.schedule, tickets=tickets
        )

    def fleet_result(self, fleet_ticket, timeout=60.0):
        """Collect a scheduled fleet into its :class:`FleetReport`."""
        raw = []
        for index, ticket in enumerate(fleet_ticket.tickets):
            result = self.result(ticket, timeout=timeout)
            if isinstance(result, SessionFailure):
                result = TaskFailure(index=index, error=result.error)
            raw.append(result)
        telemetry = EngineTelemetry(workers=self.workers)
        return fleet_ticket.runner.assemble_report(
            fleet_ticket.schedule, raw, telemetry=telemetry
        )

    # -- internals ---------------------------------------------------------------

    def _worker_loop(self, stop):
        while not stop.is_set():
            job = self.queue.get(timeout=self.poll_seconds)
            if job is None:
                continue
            queue_wait = time.perf_counter() - job.enqueued_at
            fn, task = job.payload
            execute_start = time.perf_counter()
            try:
                _, result = fn(task)
                obs_metrics.counter_inc("service.sessions_completed")
            except Exception as exc:  # a broken session must not kill the pool
                result = SessionFailure(
                    job_id=job.job_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
                obs_metrics.counter_inc("service.sessions_failed")
            execute_seconds = time.perf_counter() - execute_start
            export_due = self.telemetry.record_session(
                queue_wait, execute_seconds
            )
            with self._result_ready:
                self._results[job.job_id] = result
                self._completed += 1
                if isinstance(result, SessionFailure):
                    self._failed += 1
                self._result_ready.notify_all()
            obs_metrics.gauge_set("service.queue_depth", self.queue.depth)
            if export_due:
                self.telemetry.export(self._service_section())

    def _service_section(self):
        with self._result_ready:
            completed, failed = self._completed, self._failed
        return {
            "state": self.state,
            "workers": self.workers,
            "reloads": self.reloads,
            "drains": self.drains,
            "queue": self.queue.counters(),
            "sessions": {"completed": completed, "failed": failed},
        }

    def summary(self):
        """One snapshot-shaped dict (also the CLI's summary source)."""
        section = self._service_section()
        section["latency"] = self.telemetry.stage_percentiles()
        return section
