"""Bounded FIFO job queue with backpressure, drain and reload.

The queue is the admission-control half of the service: submissions
beyond ``max_depth`` are *shed* immediately (raising
:class:`BackpressureShed`) rather than buffered without bound, so a
burst of tag-session requests degrades into a measured shed rate instead
of unbounded memory growth.  Ordering is strict FIFO: jobs pop in the
order they were accepted — the invariant the property tests pin.

``close()`` flips the queue into drain mode (new submissions raise
:class:`QueueClosed`; already-accepted jobs remain poppable) and
``reopen()`` re-admits.  Jobs are handed out exactly once — a popped job
is gone from the deque under the same lock that admitted it — which is
what makes the service's no-loss/no-duplication guarantee hold across
drain and reload.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass, field

from repro.utils.validation import require_whole


class BackpressureShed(RuntimeError):
    """Submission rejected because the queue is at ``max_depth``."""


class QueueClosed(RuntimeError):
    """Submission rejected because the queue is draining or shut down."""


@dataclass
class Job:
    """One accepted unit of work."""

    job_id: int
    payload: object
    #: ``perf_counter`` timestamp at admission; queue-wait latency is
    #: measured from here.
    enqueued_at: float = field(default_factory=time.perf_counter)


class JobQueue:
    """Thread-safe bounded FIFO queue."""

    def __init__(self, max_depth=64):
        require_whole("max_depth", max_depth, minimum=1)
        self.max_depth = int(max_depth)
        self._jobs = collections.deque()
        self._not_empty = threading.Condition(threading.Lock())
        self._seq = 0
        self._closed = False
        #: Jobs accepted / rejected at the door / handed to a worker.
        self.submitted = 0
        self.shed = 0
        self.rejected_closed = 0
        self.popped = 0

    @property
    def depth(self):
        with self._not_empty:
            return len(self._jobs)

    @property
    def closed(self):
        with self._not_empty:
            return self._closed

    def submit(self, payload):
        """Admit one job; returns it, or raises the backpressure errors."""
        with self._not_empty:
            if self._closed:
                self.rejected_closed += 1
                raise QueueClosed(
                    "queue is closed to new submissions (draining)"
                )
            if len(self._jobs) >= self.max_depth:
                self.shed += 1
                raise BackpressureShed(
                    f"queue depth {len(self._jobs)} is at max_depth "
                    f"{self.max_depth}; session shed"
                )
            self._seq += 1
            self.submitted += 1
            job = Job(job_id=self._seq, payload=payload)
            self._jobs.append(job)
            self._not_empty.notify()
            return job

    def get(self, timeout=None):
        """Pop the front job, or ``None`` on timeout / spurious wake-up.

        Workers treat ``None`` as "re-check your stop flag and try
        again"; :meth:`wake_all` deliberately triggers that re-check so a
        reload or shutdown never waits out a full timeout.
        """
        with self._not_empty:
            if not self._jobs:
                self._not_empty.wait(timeout)
            if not self._jobs:
                return None
            job = self._jobs.popleft()
            self.popped += 1
            return job

    def wake_all(self):
        """Wake every blocked :meth:`get` so callers re-check stop flags."""
        with self._not_empty:
            self._not_empty.notify_all()

    def close(self):
        """Stop admitting; queued jobs remain poppable (drain mode)."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def reopen(self):
        """Re-admit submissions after a drain."""
        with self._not_empty:
            self._closed = False

    def counters(self):
        """Flat snapshot of the admission counters."""
        with self._not_empty:
            return {
                "depth": len(self._jobs),
                "max_depth": self.max_depth,
                "submitted": self.submitted,
                "shed": self.shed,
                "rejected_closed": self.rejected_closed,
                "popped": self.popped,
            }
