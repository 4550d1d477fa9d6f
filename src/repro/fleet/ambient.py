"""Shared eNodeB captures: compute the ambient stage once, reuse N times.

``LteTransmitter.transmit`` output is deterministic per ``(bandwidth,
cell, n_frames, seed)`` — nothing about a tag feeds back into the eNodeB —
so when a fleet of N tags rides one cell, the capture and its OFDM
modulation only need to be generated once.  :class:`AmbientCache` keys
prepared :class:`~repro.core.system.AmbientStage` objects on exactly that
tuple and counts transmitter invocations (``transmit_calls``) so the
benchmark suite can assert the sharing actually happens.

For multi-process fleet runs the unit-power samples are additionally
spilled to a binary scratch file; :class:`AmbientHandle` carries the path
and workers re-open it with ``numpy.memmap`` read-only — the ambient is
shared by the page cache instead of being pickled into every worker.

The scratch file lives in tempdir territory where anything can happen to
it (eviction, truncation by a full disk, a crashed writer).  Every spill
records size and CRC-32; :meth:`AmbientCache.handle` re-verifies the file
before vending a handle and silently regenerates it on mismatch
(``integrity_failures`` counts the events), while
:meth:`AmbientHandle.load` fails loudly with the path and expected byte
count — a worker cannot regenerate, only report.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.core.system import AmbientStage, LScatterSystem
from repro.lte.params import LteParams
from repro.lte.transmitter import LteCapture
from repro.substrates import ambient_kind_for
from repro.utils.integrity import crc32_file

#: Bytes per complex128 sample in the scratch spill.
_BYTES_PER_SAMPLE = 16


class AmbientIntegrityError(RuntimeError):
    """A shared-ambient scratch file is missing, truncated, or corrupt."""


@dataclass(frozen=True)
class AmbientKey:
    """Everything the ambient stage depends on."""

    bandwidth_mhz: float
    cell: object  # CellConfig is a frozen (hashable) dataclass
    n_frames: int
    seed: int
    #: Physical cell identity, keyed explicitly so two cells of a
    #: multi-cell topology can never collide on one cache slot even if a
    #: future ``CellConfig`` stops hashing its identity fields.
    cell_id: int = 0
    #: What kind of ambient the substrate rides (see
    #: :func:`repro.substrates.ambient_kind_for`).  Downlink substrates
    #: all share ``"lte-downlink"`` captures; the uplink-SRS mode keys
    #: its synthetic sounding captures separately so the two waveforms
    #: can never collide on one cache slot.
    ambient_kind: str = "lte-downlink"


@dataclass
class AmbientHandle:
    """Picklable recipe for re-opening a shared ambient in a worker.

    Only scalars and a file path cross the process boundary; the samples
    themselves stay on disk and are memory-mapped on first use.
    """

    path: str
    n_samples: int
    bandwidth_mhz: float
    cell: object
    #: Genie frame records, only populated when the per-tag stage needs
    #: them (``reference_mode='decoded'``); pickled with the handle.
    frames: list = field(default_factory=list)
    #: CRC-32 of the spill, recorded at write time; ``None`` skips the
    #: content check (size is always verified).
    checksum: int = None

    @property
    def expected_bytes(self):
        return int(self.n_samples) * _BYTES_PER_SAMPLE

    def verify(self):
        """Raise :class:`AmbientIntegrityError` unless the spill is intact."""
        if not os.path.exists(self.path):
            raise AmbientIntegrityError(
                f"shared ambient scratch file {self.path!r} is missing "
                f"(expected {self.expected_bytes} bytes for "
                f"{self.n_samples} complex128 samples); the parent cache "
                "may have been cleared while workers were running"
            )
        actual = os.path.getsize(self.path)
        if actual != self.expected_bytes:
            raise AmbientIntegrityError(
                f"shared ambient scratch file {self.path!r} is truncated: "
                f"{actual} bytes on disk, expected {self.expected_bytes} "
                f"({self.n_samples} complex128 samples)"
            )
        if self.checksum is not None and crc32_file(self.path) != self.checksum:
            raise AmbientIntegrityError(
                f"shared ambient scratch file {self.path!r} failed its "
                f"CRC-32 check ({self.expected_bytes} bytes, size intact): "
                "contents were modified after the spill"
            )

    def load(self):
        """Re-open the shared samples and rebuild an :class:`AmbientStage`."""
        self.verify()
        unit = np.memmap(self.path, dtype=np.complex128, mode="r",
                         shape=(self.n_samples,))
        capture = LteCapture(
            params=LteParams.from_bandwidth(self.bandwidth_mhz),
            cell=self.cell,
            samples=unit,
            frames=self.frames,
        )
        return AmbientStage(capture=capture, unit=unit)


@dataclass
class _Entry:
    stage: AmbientStage
    path: str = None
    checksum: int = None
    n_bytes: int = 0


class AmbientCache:
    """Memoise ambient stages per (bandwidth, cell, n_frames, seed)."""

    def __init__(self, scratch_dir=None):
        self._entries = {}
        self._scratch_dir = scratch_dir
        #: How many times ``LteTransmitter.transmit`` actually ran.
        self.transmit_calls = 0
        #: How many times an entry was looked up (hit or miss); the cache
        #: hit ratio is ``(requests - transmit_calls) / requests``.
        self.requests = 0
        #: Scratch files found missing/corrupt and regenerated.
        self.integrity_failures = 0

    def __len__(self):
        return len(self._entries)

    @staticmethod
    def key_for(config, seed):
        cell = config.cell
        return AmbientKey(
            bandwidth_mhz=float(config.bandwidth_mhz),
            cell=cell,
            n_frames=int(config.n_frames),
            seed=int(seed),
            cell_id=int(3 * cell.n_id_1 + cell.n_id_2),
            ambient_kind=ambient_kind_for(config.substrate),
        )

    def get(self, config, seed):
        """The shared :class:`AmbientStage` for ``config``'s ambient tuple.

        The returned stage's capture holds the *normalised* samples (mean
        sample power 1), so ``capture.samples is stage.unit`` — genie-mode
        references and the reflected waveform then agree in scale across
        every consumer of the cache.
        """
        return self._entry(config, seed).stage

    def _entry(self, config, seed):
        key = self.key_for(config, seed)
        self.requests += 1
        entry = self._entries.get(key)
        if entry is None:
            stage = LScatterSystem(config).prepare_ambient(rng=key.seed)
            self.transmit_calls += 1
            # Re-point the capture at the unit samples: one array, one scale.
            stage.capture.samples = stage.unit
            entry = _Entry(stage=stage)
            self._entries[key] = entry
        return entry

    def _spill(self, entry):
        """Write the entry's unit samples to a fresh scratch file."""
        fd, path = tempfile.mkstemp(
            prefix="lscatter-ambient-", suffix=".iq", dir=self._scratch_dir
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.ascontiguousarray(entry.stage.unit, dtype=np.complex128).tofile(fh)
        except BaseException:
            # A failed spill (full disk, interrupted write) must not
            # orphan the scratch file: ``entry.path`` is only assigned on
            # success, so ``clear()``/``close()`` would never unlink it.
            try:
                os.unlink(path)
            except OSError:
                pass
            raise
        entry.path = path
        entry.n_bytes = os.path.getsize(path)
        entry.checksum = crc32_file(path)

    def _spill_intact(self, entry):
        if entry.path is None:
            return False
        try:
            return (
                os.path.getsize(entry.path) == entry.n_bytes
                and crc32_file(entry.path) == entry.checksum
            )
        except OSError:
            return False

    def handle(self, config, seed, include_frames=False):
        """An :class:`AmbientHandle` for worker processes (spills to disk).

        An existing spill is re-verified (size + CRC-32) on every call; a
        missing, truncated, or bit-flipped file is regenerated from the
        in-memory stage and counted in ``integrity_failures``.
        """
        key = self.key_for(config, seed)
        entry = self._entry(config, seed)
        if entry.path is not None and not self._spill_intact(entry):
            self.integrity_failures += 1
            old = entry.path
            entry.path = None
            if os.path.exists(old):
                try:
                    os.unlink(old)
                except OSError:
                    pass
        if entry.path is None:
            self._spill(entry)
        return AmbientHandle(
            path=entry.path,
            n_samples=len(entry.stage.unit),
            bandwidth_mhz=key.bandwidth_mhz,
            cell=key.cell,
            frames=list(entry.stage.capture.frames) if include_frames else [],
            checksum=entry.checksum,
        )

    def clear(self):
        """Drop every entry and unlink the scratch files."""
        for entry in self._entries.values():
            if entry.path is not None and os.path.exists(entry.path):
                os.unlink(entry.path)
        self._entries.clear()

    def close(self):
        """Release scratch files; the cache stays usable (repopulates)."""
        self.clear()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __del__(self):
        try:
            self.clear()
        except Exception:
            pass


#: Lazily-created per-process shared cache (see :func:`process_cache`).
_PROCESS_CACHE = None


def process_cache():
    """The process-global :class:`AmbientCache`.

    Campaign shards run as pure tasks inside long-lived worker processes
    (:class:`~repro.fleet.engine.ParallelRunEngine` pools); IQ-level
    points that share an ambient tuple — e.g. Fig. 18's LoS and NLoS arms
    at one bandwidth, or re-runs of the same shard after a retry — reuse
    one capture instead of regenerating it per point.  Entries live for
    the lifetime of the process (a worker holds at most one sweep's worth
    of captures); call :func:`reset_process_cache` to drop them.
    """
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = AmbientCache()
    return _PROCESS_CACHE


def reset_process_cache():
    """Close and forget the process-global cache (tests, memory pressure)."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is not None:
        _PROCESS_CACHE.close()
        _PROCESS_CACHE = None
