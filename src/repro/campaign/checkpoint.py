"""On-disk shard checkpoints: JSON payload + CRC-32, atomic writes.

A campaign's run directory holds one small JSON file per completed shard
plus per-job manifests.  Each checkpoint embeds a CRC-32
(:func:`repro.utils.integrity.crc32_bytes`) of its canonicalised payload;
:meth:`CheckpointStore.verify` re-reads and re-checks the file, so
``--resume`` only trusts checkpoints that are present, parseable,
CRC-intact, *and* belong to the same shard identity (experiment, params,
seed) — a grid edit or reseed quietly invalidates stale results instead
of merging them.

Writes go through a temp file + ``os.replace`` so a crash mid-write can
only ever leave a missing or verifiably-corrupt checkpoint, never a
silently-truncated "valid" one.  Values are sanitised to plain Python
scalars before hitting JSON; floats round-trip bit-exactly (shortest
repr), which is what keeps sharded aggregation identical to the
monolithic run.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.utils.integrity import crc32_bytes, write_json

#: Bumped when the checkpoint layout changes; mismatches read as stale.
CHECKPOINT_VERSION = 1


def _jsonify(value):
    """Plain-Python view of a row/params value (bit-exact for floats)."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.generic):
        return _jsonify(value.item())
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return repr(value)


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_crc(payload):
    """CRC-32 of a payload's canonical JSON form (sorted keys, no spaces).

    The digest every checkpoint embeds, exposed for other layers that
    need a stable content identity for JSON-safe rows — the soak harness
    fingerprints each cohort's results (and the whole grid) with it, so
    "bit-identical aggregates" reduces to integer equality.
    """
    return crc32_bytes(_canonical(_jsonify(payload)).encode())


class CheckpointStore:
    """Shard checkpoints and manifests under one run directory."""

    def __init__(self, run_dir):
        self.run_dir = str(run_dir)
        os.makedirs(self.run_dir, exist_ok=True)

    def path(self, shard):
        return os.path.join(self.run_dir, f"{shard.shard_id}.json")

    # -- checkpoints -------------------------------------------------------------

    def write(self, shard, row, elapsed_seconds=0.0):
        """Atomically persist one completed shard; returns the path."""
        payload = {
            "version": CHECKPOINT_VERSION,
            "experiment": shard.experiment,
            "shard_id": shard.shard_id,
            "index": int(shard.index),
            "params": _jsonify(shard.params),
            "seed": int(shard.seed),
            "row": _jsonify(row),
            "elapsed_seconds": float(elapsed_seconds),
        }
        record = {"crc32": crc32_bytes(_canonical(payload).encode()),
                  "payload": payload}
        return write_json(self.path(shard), record)

    def verify(self, shard):
        """``(status, row)`` for a shard's checkpoint.

        Status is ``"ok"`` (row usable), ``"missing"``, ``"corrupt"``
        (unparseable or CRC mismatch), or ``"stale"`` (intact but written
        for a different grid identity — params, seed, experiment, or
        checkpoint version changed).
        """
        path = self.path(shard)
        if not os.path.exists(path):
            return "missing", None
        try:
            with open(path) as fh:
                record = json.load(fh)
            payload = record["payload"]
            crc = int(record["crc32"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                OSError):
            return "corrupt", None
        if crc32_bytes(_canonical(payload).encode()) != crc:
            return "corrupt", None
        identity_ok = (
            payload.get("version") == CHECKPOINT_VERSION
            and payload.get("experiment") == shard.experiment
            and payload.get("shard_id") == shard.shard_id
            and payload.get("index") == shard.index
            and payload.get("seed") == int(shard.seed)
            and payload.get("params") == _jsonify(shard.params)
        )
        if not identity_ok:
            return "stale", None
        return "ok", payload["row"]

    # -- manifests ---------------------------------------------------------------

    def manifest_path(self, n_shards=1, shard_index=None):
        if shard_index is None:
            return os.path.join(self.run_dir, "manifest.json")
        return os.path.join(
            self.run_dir, f"manifest-shard{int(shard_index)}of{int(n_shards)}.json"
        )

    def write_manifest(self, spec, n_shards, shard_index, entries):
        """Persist one job's view of the campaign; returns the path.

        ``entries`` is a list of dicts (shard_id/index/params/seed/status/
        elapsed_seconds/error).  Jobs of a sharded campaign write distinct
        ``manifest-shardIofN.json`` files, so CI matrix entries never
        clobber each other's artifacts.
        """
        manifest = {
            "experiment": spec.experiment,
            "seed": int(spec.seed),
            "smoke": bool(spec.smoke),
            "n_shards": int(n_shards),
            "shard_index": None if shard_index is None else int(shard_index),
            "shards": _jsonify(entries),
        }
        return write_json(self.manifest_path(n_shards, shard_index), manifest)
