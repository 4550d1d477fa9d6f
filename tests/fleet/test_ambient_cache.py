"""Shared-ambient cache tests."""

import os

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.faults import bitflip_file, truncate_file
from repro.fleet import AmbientCache, AmbientIntegrityError


def _config(**kwargs):
    defaults = dict(bandwidth_mhz=1.4, n_frames=1, reference_mode="genie")
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def test_cache_hits_share_one_transmit():
    cache = AmbientCache()
    first = cache.get(_config(), seed=0)
    second = cache.get(_config(), seed=0)
    assert cache.transmit_calls == 1
    assert second is first
    assert len(cache) == 1


def test_cache_misses_on_different_key():
    cache = AmbientCache()
    cache.get(_config(), seed=0)
    cache.get(_config(), seed=1)
    cache.get(_config(n_frames=2), seed=0)
    assert cache.transmit_calls == 3
    assert len(cache) == 3


def test_cached_stage_is_unit_power_and_self_consistent():
    cache = AmbientCache()
    stage = cache.get(_config(), seed=0)
    np.testing.assert_allclose(np.mean(np.abs(stage.unit) ** 2), 1.0)
    # Genie reference and reflected waveform come from the same array.
    assert stage.capture.samples is stage.unit


def test_handle_round_trips_through_memmap(tmp_path):
    cache = AmbientCache(scratch_dir=tmp_path)
    stage = cache.get(_config(), seed=0)
    handle = cache.handle(_config(), seed=0)
    assert cache.transmit_calls == 1  # handle reuses the cached stage
    assert os.path.exists(handle.path)
    loaded = handle.load()
    np.testing.assert_array_equal(np.asarray(loaded.unit), stage.unit)
    assert loaded.capture.samples is loaded.unit
    # A second handle reuses the same scratch file.
    again = cache.handle(_config(), seed=0)
    assert again.path == handle.path
    cache.clear()
    assert not os.path.exists(handle.path)


def test_handle_is_picklable(tmp_path):
    import pickle

    cache = AmbientCache(scratch_dir=tmp_path)
    handle = cache.handle(_config(), seed=0)
    clone = pickle.loads(pickle.dumps(handle))
    loaded = clone.load()
    assert len(loaded.unit) == handle.n_samples
    cache.clear()


# -- cell identity in the key -----------------------------------------------------


def test_cache_keys_disjoint_on_cell_identity():
    """Two cells differing only in identity must never share a slot."""
    from repro.lte import CellConfig

    cache = AmbientCache()
    cell_a = cache.get(_config(cell=CellConfig(n_id_1=1, n_id_2=0)), seed=0)
    cell_b = cache.get(_config(cell=CellConfig(n_id_1=1, n_id_2=1)), seed=0)
    assert cache.transmit_calls == 2
    assert len(cache) == 2
    assert cell_a is not cell_b
    # Same identity twice is still one entry.
    cache.get(_config(cell=CellConfig(n_id_1=1, n_id_2=0)), seed=0)
    assert cache.transmit_calls == 2


def test_key_for_encodes_physical_cell_id():
    from repro.lte import CellConfig

    key = AmbientCache.key_for(
        _config(cell=CellConfig(n_id_1=11, n_id_2=2)), seed=5
    )
    assert key.cell_id == 3 * 11 + 2
    assert key.seed == 5
    other = AmbientCache.key_for(
        _config(cell=CellConfig(n_id_1=11, n_id_2=1)), seed=5
    )
    assert key != other


def test_requests_counter_tracks_hits_and_misses():
    cache = AmbientCache()
    assert cache.requests == 0
    cache.get(_config(), seed=0)
    cache.get(_config(), seed=0)
    cache.get(_config(), seed=1)
    assert cache.requests == 3
    assert cache.transmit_calls == 2
    # Hit ratio: (requests - transmits) / requests.
    assert (cache.requests - cache.transmit_calls) / cache.requests == pytest.approx(
        1 / 3
    )


# -- integrity --------------------------------------------------------------------


def test_load_missing_file_names_path_and_expected_bytes(tmp_path):
    cache = AmbientCache(scratch_dir=tmp_path)
    handle = cache.handle(_config(), seed=0)
    os.unlink(handle.path)
    with pytest.raises(AmbientIntegrityError) as excinfo:
        handle.load()
    message = str(excinfo.value)
    assert handle.path in message
    assert str(handle.expected_bytes) in message
    assert "missing" in message


def test_load_truncated_file_reports_both_sizes(tmp_path):
    cache = AmbientCache(scratch_dir=tmp_path)
    handle = cache.handle(_config(), seed=0)
    truncate_file(handle.path, n_bytes=128)
    with pytest.raises(AmbientIntegrityError) as excinfo:
        handle.load()
    message = str(excinfo.value)
    assert "truncated" in message
    assert "128 bytes" in message
    assert str(handle.expected_bytes) in message
    cache.clear()


def test_load_detects_bitflip_via_checksum(tmp_path):
    cache = AmbientCache(scratch_dir=tmp_path)
    handle = cache.handle(_config(), seed=0)
    assert handle.checksum is not None
    bitflip_file(handle.path)
    with pytest.raises(AmbientIntegrityError, match="CRC-32"):
        handle.load()
    cache.clear()


def test_cache_regenerates_corrupt_spill(tmp_path):
    cache = AmbientCache(scratch_dir=tmp_path)
    first = cache.handle(_config(), seed=0)
    bitflip_file(first.path)
    second = cache.handle(_config(), seed=0)
    assert cache.integrity_failures == 1
    second.verify()  # intact again
    stage = cache.get(_config(), seed=0)
    np.testing.assert_array_equal(np.asarray(second.load().unit), stage.unit)
    # Regeneration re-spills the cached stage; no new eNodeB transmit.
    assert cache.transmit_calls == 1
    cache.clear()


def test_cache_regenerates_deleted_spill(tmp_path):
    cache = AmbientCache(scratch_dir=tmp_path)
    first = cache.handle(_config(), seed=0)
    os.unlink(first.path)
    second = cache.handle(_config(), seed=0)
    assert cache.integrity_failures == 1
    assert os.path.exists(second.path)
    cache.clear()


def test_close_and_context_manager_release_scratch(tmp_path):
    with AmbientCache(scratch_dir=tmp_path) as cache:
        handle = cache.handle(_config(), seed=0)
        assert os.path.exists(handle.path)
    assert not os.path.exists(handle.path)

    cache = AmbientCache(scratch_dir=tmp_path)
    handle = cache.handle(_config(), seed=0)
    cache.close()
    assert not os.path.exists(handle.path)
    # close() leaves the cache usable: the next handle repopulates.
    again = cache.handle(_config(), seed=0)
    assert os.path.exists(again.path)
    cache.close()


def test_failed_spill_leaves_no_scratch_file(tmp_path, monkeypatch):
    """A spill that dies mid-write (full disk, interrupt) must unlink the
    half-written scratch file: ``entry.path`` is only assigned on success,
    so nothing else would ever clean it up."""
    cache = AmbientCache(scratch_dir=tmp_path)
    cache.get(_config(), seed=0)  # populate the in-memory stage first

    def exploding_write(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "ascontiguousarray", exploding_write)
    with pytest.raises(OSError):
        cache.handle(_config(), seed=0)
    assert list(tmp_path.iterdir()) == []

    # The cache survives the failure: once writes work again the same
    # entry spills cleanly.
    monkeypatch.undo()
    handle = cache.handle(_config(), seed=0)
    assert os.path.exists(handle.path)
    assert cache.transmit_calls == 1
    cache.clear()


def test_exception_between_handle_and_close_cleans_scratch(tmp_path):
    """The context manager releases scratch spills on *error* exits too —
    the runner crashing between ``handle()`` and ``close()`` must not
    leak ``lscatter-ambient-*.iq`` files into the tempdir."""
    with pytest.raises(RuntimeError):
        with AmbientCache(scratch_dir=tmp_path) as cache:
            handle = cache.handle(_config(), seed=0)
            assert os.path.exists(handle.path)
            raise RuntimeError("worker pool died")
    assert list(tmp_path.iterdir()) == []
