"""Checkpoint files: CRC round-trip, corruption, staleness, manifests."""

import json

import numpy as np

from repro.campaign import CheckpointStore, Shard
from repro.utils.integrity import crc32_bytes


def _shard(**overrides):
    base = dict(
        index=0,
        shard_id="fig99-0000",
        experiment="fig99",
        params={"distance_ft": 5.0},
        seed=0,
    )
    base.update(overrides)
    return Shard(**base)


def test_write_verify_roundtrip_is_bit_exact(tmp_path):
    store = CheckpointStore(tmp_path)
    shard = _shard()
    # Awkward floats + numpy scalars: the row must come back bit-identical
    # as plain Python, which is what sharded aggregation leans on.
    row = {
        "throughput_mbps": 0.1 + 0.2,
        "ber": np.float64(1.2345678901234567e-9),
        "count": np.int64(42),
        "nested": {"values": [1.0 / 3.0, 2.0 / 3.0]},
    }
    store.write(shard, row)
    status, got = store.verify(shard)
    assert status == "ok"
    assert got["throughput_mbps"] == row["throughput_mbps"]
    assert got["ber"] == float(row["ber"])
    assert got["count"] == 42
    assert got["nested"]["values"] == row["nested"]["values"]
    assert isinstance(got["ber"], float)


def test_checkpoint_with_elapsed_seconds_still_verifies(tmp_path):
    """Older checkpoints carried the shard's wall time in their payload;
    ``--resume`` over such a run directory keeps trusting them."""
    store = CheckpointStore(tmp_path)
    shard = _shard()
    payload = {
        "version": 1,
        "experiment": shard.experiment,
        "shard_id": shard.shard_id,
        "index": shard.index,
        "params": shard.params,
        "seed": shard.seed,
        "row": {"value": 1.0},
        "elapsed_seconds": 1.25,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(store.path(shard), "w") as fh:
        json.dump({"crc32": crc32_bytes(canonical.encode()), "payload": payload}, fh)
    assert store.verify(shard) == ("ok", {"value": 1.0})


def test_missing_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.verify(_shard()) == ("missing", None)


def test_corrupted_payload_fails_crc(tmp_path):
    store = CheckpointStore(tmp_path)
    shard = _shard()
    path = store.write(shard, {"value": 1.0})
    text = open(path).read()
    open(path, "w").write(text.replace('"value": 1.0', '"value": 2.0'))
    assert store.verify(shard) == ("corrupt", None)


def test_truncated_file_is_corrupt(tmp_path):
    store = CheckpointStore(tmp_path)
    shard = _shard()
    path = store.write(shard, {"value": 1.0})
    data = open(path).read()
    open(path, "w").write(data[: len(data) // 2])
    assert store.verify(shard) == ("corrupt", None)


def test_checkpoint_for_other_identity_is_stale(tmp_path):
    store = CheckpointStore(tmp_path)
    shard = _shard()
    store.write(shard, {"value": 1.0})
    # Same file name, different grid identity: reseeded...
    assert store.verify(_shard(seed=1))[0] == "stale"
    # ...or the grid point moved under the same id.
    assert store.verify(_shard(params={"distance_ft": 10.0}))[0] == "stale"


def test_manifest_names_are_per_job(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.manifest_path().endswith("manifest.json")
    assert store.manifest_path(4, 2).endswith("manifest-shard2of4.json")


def test_write_manifest_records_entries(tmp_path):
    from repro.campaign import CampaignSpec

    store = CheckpointStore(tmp_path)
    spec = CampaignSpec(experiment="fig99", seed=5, smoke=True)
    entries = [
        {"shard_id": "fig99-0000", "index": 0, "status": "completed",
         "params": {"d": 1.0}, "seed": 5, "elapsed_seconds": 0.5,
         "error": None},
    ]
    path = store.write_manifest(spec, 2, 1, entries)
    manifest = json.load(open(path))
    assert manifest["experiment"] == "fig99"
    assert manifest["seed"] == 5
    assert manifest["smoke"] is True
    assert manifest["n_shards"] == 2
    assert manifest["shard_index"] == 1
    assert manifest["shards"][0]["shard_id"] == "fig99-0000"
