"""Infrastructure fault injectors: break the fleet substrate, not the radio.

Two families:

* :class:`FaultyTask` wraps the pure per-tag task function and makes
  selected tasks crash or hang — **in worker processes only** (detected
  by PID), so the parent-process retry of the same pure task reproduces
  the clean result bit-for-bit.  This is how the chaos harness proves the
  hardened engine's recovery path, and why recovered fleet runs stay
  bit-identical to fault-free ones.
* Scratch-file corruptors (:func:`truncate_file`, :func:`bitflip_file`)
  damage an :class:`~repro.fleet.ambient.AmbientHandle` spill on disk the
  way a crashed writer or a reused stale path would; the cache's
  size+checksum verification must detect and regenerate them.
"""

from __future__ import annotations

import os
import time


class InjectedWorkerCrash(RuntimeError):
    """Raised inside a worker by :class:`FaultyTask` (crash injection)."""


class FaultyTask:
    """Picklable wrapper injecting worker-only crashes and hangs.

    ``fn(task)`` must be a module-level callable (it crosses the process
    boundary); tasks are identified by their ``index`` attribute, falling
    back to the task value itself for plain-integer task lists.
    """

    def __init__(self, fn, crash_tasks=(), hang_tasks=(), hang_seconds=30.0):
        self.fn = fn
        self.crash_tasks = frozenset(int(i) for i in crash_tasks)
        self.hang_tasks = frozenset(int(i) for i in hang_tasks)
        self.hang_seconds = float(hang_seconds)
        #: Recorded at construction (in the parent); a different PID at
        #: call time means we are inside a worker process.
        self.parent_pid = os.getpid()

    @classmethod
    def from_faults(cls, fn, faults):
        """Build from an :class:`~repro.faults.plan.InfraFaults` spec.

        ``None`` (or a spec with nothing to inject) returns ``fn``
        unwrapped — the zero-fault contract extends to the task layer.
        """
        if faults is None or not (faults.crash_tasks or faults.hang_tasks):
            return fn
        return cls(
            fn,
            crash_tasks=faults.crash_tasks,
            hang_tasks=faults.hang_tasks,
            hang_seconds=faults.hang_seconds,
        )

    @staticmethod
    def _index(task):
        index = getattr(task, "index", None)
        if index is None and isinstance(task, int):
            index = task
        return index

    def __call__(self, task):
        if os.getpid() != self.parent_pid:
            index = self._index(task)
            if index in self.crash_tasks:
                raise InjectedWorkerCrash(
                    f"injected crash in worker for task {index}"
                )
            if index in self.hang_tasks:
                time.sleep(self.hang_seconds)
        return self.fn(task)


def truncate_file(path, n_bytes=128):
    """Chop a scratch file down to ``n_bytes`` (simulates a killed writer)."""
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(min(int(n_bytes), size))


def bitflip_file(path):
    """Flip one byte mid-file (simulates silent media/transfer corruption)."""
    size = os.path.getsize(path)
    if size == 0:
        return
    position = size // 2
    with open(path, "r+b") as fh:
        fh.seek(position)
        byte = fh.read(1)
        fh.seek(position)
        fh.write(bytes([byte[0] ^ 0xFF]))
