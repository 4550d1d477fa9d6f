"""Parallel run engine: deterministic fan-out of per-tag simulations.

Design rules:

* **Determinism** — every task is a self-contained picklable payload with
  its own pre-spawned seed; results are keyed by task index, so the output
  order (and every bit of every result) is identical for any worker count.
* **Resilience** — a task whose worker dies (``BrokenProcessPool``, a
  killed container child, a pickling surprise) or exceeds the timeout
  budget is retried *in the parent process* with bounded exponential
  backoff; the task is pure, so the retry reproduces exactly what the
  worker would have produced.  Completions are harvested with
  ``as_completed`` so one slow or hung worker never serialises the
  others' results.
* **Partial results** — with ``on_error='partial'`` a task that fails
  every retry yields a :class:`TaskFailure` sentinel in its slot instead
  of raising, so a fleet report can record the casualty and keep the
  other tags' results.
* **Fallback** — if the platform cannot spawn processes at all, the whole
  batch degrades to the serial path instead of failing.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.obs import metrics as obs_metrics
from repro.utils.validation import require_whole

#: Grace added to the pool timeout budget for executor spin-up.
_POOL_SPINUP_GRACE_SECONDS = 1.0


@dataclass
class TaskFailure:
    """Sentinel result for a task that failed every retry (partial mode)."""

    index: int
    error: str
    attempts: int = 0
    timed_out: bool = False


@dataclass
class EngineTelemetry:
    """What the fan-out actually cost."""

    workers: int = 1
    wall_seconds: float = 0.0
    #: Sum of per-task runtimes — the serial-equivalent cost.
    task_seconds: float = 0.0
    retried: int = 0
    fell_back_serial: bool = False
    #: Tasks harvested past the timeout budget (hung workers).
    timed_out: int = 0
    #: Tasks that exhausted every retry (partial mode only; raise mode
    #: propagates instead of counting).
    failed: int = 0
    #: Total backoff sleep between retry attempts.
    backoff_seconds: float = 0.0

    @property
    def speedup(self):
        """Serial-equivalent time over wall time (1.0 when serial)."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.task_seconds / self.wall_seconds


@dataclass
class ParallelRunEngine:
    """Map a pure function over tasks with processes, retries, fallback."""

    workers: int = 1
    max_retries: int = 1
    #: Per-task wall-clock budget; ``None`` waits forever.  The pool
    #: budget scales with queueing depth (``ceil(n_tasks / workers)``
    #: waves) so a full batch on few workers is not mis-flagged.
    task_timeout_seconds: float = None
    #: First retry delay; doubles per attempt, capped below.  The fleet's
    #: tasks are pure, so backoff only matters for environmental failures
    #: (a recovering sandbox, a briefly-unspawnable pool).
    retry_backoff_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    #: "raise" propagates a task that fails every retry; "partial" slots a
    #: :class:`TaskFailure` sentinel and keeps the rest of the batch.
    on_error: str = "raise"

    def __post_init__(self):
        require_whole("workers", self.workers, minimum=1)
        self.workers = int(self.workers)
        if self.on_error not in ("raise", "partial"):
            raise ValueError("on_error must be 'raise' or 'partial'")
        self.telemetry = EngineTelemetry(workers=self.workers)

    def map(self, fn, tasks, on_result=None):
        """Apply ``fn`` to every task; returns results in task order.

        ``fn(task)`` must return ``(elapsed_seconds, result)`` so the
        telemetry can compare wall time against serial-equivalent time.
        Slots of tasks that exhausted every retry hold
        :class:`TaskFailure` when ``on_error='partial'``.

        ``on_result(index, result)`` is invoked in the parent process as
        each slot is finalised (harvest order, not task order) — the hook
        the campaign layer uses to checkpoint completed shards, so a batch
        killed partway still keeps everything already harvested.  It fires
        for :class:`TaskFailure` slots too; it does not fire for a task
        whose failure propagates in ``on_error='raise'`` mode.
        """
        tasks = list(tasks)
        telemetry = self.telemetry
        start = time.perf_counter()
        if self.workers <= 1 or len(tasks) <= 1:
            results = self._run_serial(fn, tasks, on_result)
        else:
            try:
                results = self._run_pool(fn, tasks, on_result)
            except (BrokenProcessPool, OSError, PermissionError):
                # The pool itself could not be (re)built — e.g. a sandbox
                # with no process spawning. Finish the batch serially.
                telemetry.fell_back_serial = True
                obs_metrics.counter_inc("fleet.serial_fallbacks")
                results = self._run_serial(fn, tasks, on_result)
        telemetry.wall_seconds = time.perf_counter() - start
        return results

    # -- serial path -------------------------------------------------------------

    def _run_serial(self, fn, tasks, on_result=None):
        results = [None] * len(tasks)
        for index in range(len(tasks)):
            try:
                results[index] = self._run_local(fn, tasks[index])
            except Exception as exc:
                self._recover(fn, tasks, index, results, first_error=exc)
            if on_result is not None:
                on_result(index, results[index])
        return results

    def _run_local(self, fn, task):
        elapsed, result = fn(task)
        self.telemetry.task_seconds += elapsed
        return result

    # -- pool path ---------------------------------------------------------------

    def _pool_budget_seconds(self, n_tasks):
        if self.task_timeout_seconds is None:
            return None
        waves = max(1, math.ceil(n_tasks / self.workers))
        return self.task_timeout_seconds * waves + _POOL_SPINUP_GRACE_SECONDS

    @staticmethod
    def _terminate_workers(pool):
        """Kill hung worker processes so pool shutdown cannot block."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass

    def _run_pool(self, fn, tasks, on_result=None):
        telemetry = self.telemetry
        results = [None] * len(tasks)
        harvested = set()
        recover = []  # (index, timed_out)
        budget = self._pool_budget_seconds(len(tasks))
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {pool.submit(fn, tasks[i]): i for i in range(len(tasks))}
            try:
                # as_completed: results land as workers finish — one slow
                # or hung task no longer gates every later submission.
                for future in as_completed(futures, timeout=budget):
                    index = futures[future]
                    harvested.add(index)
                    try:
                        elapsed, result = future.result()
                    except Exception:
                        # Worker death or a real task error: reproduce in
                        # the parent below, where a deterministic failure
                        # surfaces with a clean traceback.
                        recover.append((index, False))
                    else:
                        telemetry.task_seconds += elapsed
                        results[index] = result
                        if on_result is not None:
                            on_result(index, result)
            except FuturesTimeout:
                for future, index in futures.items():
                    if index in harvested:
                        continue
                    harvested.add(index)
                    if future.done():
                        # Completed in the race with the deadline.
                        try:
                            elapsed, result = future.result()
                        except Exception:
                            recover.append((index, False))
                        else:
                            telemetry.task_seconds += elapsed
                            results[index] = result
                            if on_result is not None:
                                on_result(index, result)
                        continue
                    future.cancel()
                    telemetry.timed_out += 1
                    obs_metrics.counter_inc("fleet.timeouts")
                    recover.append((index, True))
                self._terminate_workers(pool)
        for index, timed_out in sorted(recover):
            self._recover(fn, tasks, index, results, timed_out=timed_out)
            if on_result is not None:
                on_result(index, results[index])
        return results

    # -- recovery ----------------------------------------------------------------

    def _recover(self, fn, tasks, index, results, first_error=None, timed_out=False):
        """Re-run one task in the parent with bounded exponential backoff."""
        telemetry = self.telemetry
        delay = max(0.0, float(self.retry_backoff_seconds))
        last_error = first_error
        attempts = 0
        for attempt in range(self.max_retries + 1):
            if attempt and delay > 0:
                pause = min(delay, float(self.backoff_cap_seconds))
                time.sleep(pause)
                telemetry.backoff_seconds += pause
                delay *= 2.0
            attempts += 1
            try:
                results[index] = self._run_local(fn, tasks[index])
                telemetry.retried += 1
                obs_metrics.counter_inc("fleet.retries")
                return
            except Exception as exc:
                last_error = exc
        telemetry.failed += 1
        obs_metrics.counter_inc("fleet.task_failures")
        if self.on_error == "partial":
            results[index] = TaskFailure(
                index=index,
                error=f"{type(last_error).__name__}: {last_error}",
                attempts=attempts,
                timed_out=timed_out,
            )
            return
        raise last_error
