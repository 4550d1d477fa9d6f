"""Memoisation-layer tests: identity, immutability, registry plumbing."""

import numpy as np
import pytest

from repro.utils.cache import cache_stats, clear_caches, memoize


def test_memoize_returns_same_object_and_counts_calls():
    calls = []

    @memoize()
    def seq(n):
        calls.append(n)
        return np.arange(n)

    a = seq(4)
    b = seq(4)
    c = seq(5)
    assert a is b
    assert calls == [4, 5]
    assert len(c) == 5


def test_memoize_freezes_arrays_and_tuples():
    @memoize()
    def pair(n):
        return np.zeros(n), np.ones(n)

    first, second = pair(3)
    assert not first.flags.writeable
    assert not second.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 9.0


def test_memoize_passes_scalars_through():
    @memoize()
    def answer():
        return 42

    assert answer() == 42
    assert answer() == 42


def test_registry_stats_and_clear():
    @memoize()
    def tracked(n):
        return np.full(n, 7)

    name = f"{tracked.__module__}.{tracked.__qualname__}"
    tracked(2)
    tracked(2)
    stats = cache_stats()
    assert name in stats
    assert stats[name]["hits"] >= 1
    assert stats[name]["currsize"] >= 1

    clear_caches()
    assert cache_stats()[name]["currsize"] == 0
    # Still functional after a global clear.
    assert len(tracked(2)) == 2


def test_lte_sequences_are_cached_instances():
    from repro.lte.crs import crs_values
    from repro.lte.params import LteParams
    from repro.lte.pss import pss_sequence
    from repro.lte.sss import sss_sequence

    assert pss_sequence(0) is pss_sequence(0)
    assert pss_sequence(0) is not pss_sequence(1)
    assert sss_sequence(3, 1, 0) is sss_sequence(3, 1, 0)
    assert crs_values(2, 0, 1, 6) is crs_values(2, 0, 1, 6)
    params = LteParams.from_bandwidth(1.4)
    assert params.subcarrier_indices() is params.subcarrier_indices()
    assert not params.subcarrier_indices().flags.writeable


#: The six caches one frame's walk of the LTE sequences goes through.
FRAME_WALK_CACHES = (
    "repro.lte.pss.pss_sequence",
    "repro.lte.pss.pss_time_domain",
    "repro.lte.sss.sss_sequence",
    "repro.lte.crs.crs_positions",
    "repro.lte.crs.crs_values",
    "repro.lte.params._subcarrier_indices",
)


def _misses():
    return {name: stats["misses"] for name, stats in cache_stats().items()}


def test_warm_frame_walk_and_session_make_no_new_misses():
    """A second walk over one frame's sequences, and a second session
    with a new seed, are served entirely from the caches."""
    from repro.core import LScatterSystem, SystemConfig
    from repro.lte.crs import CRS_SYMBOLS_IN_SLOT, crs_positions, crs_values
    from repro.lte.params import SLOTS_PER_FRAME, LteParams
    from repro.lte.pss import pss_sequence, pss_time_domain
    from repro.lte.sss import sss_sequence

    params = LteParams.from_bandwidth(5.0)

    def one_frame():
        for n_id_2 in range(3):
            pss_sequence(n_id_2)
            pss_time_domain(n_id_2, params.fft_size)
        for subframe in (0, 5):
            sss_sequence(0, 0, subframe)
        for slot in range(SLOTS_PER_FRAME):
            for sym in CRS_SYMBOLS_IN_SLOT:
                crs_positions(sym, 1, params.n_rb)
                crs_values(slot, sym, 1, params.n_rb)
        params.subcarrier_indices()

    clear_caches()
    one_frame()
    cold, cold_misses = cache_stats(), _misses()
    one_frame()
    warm = cache_stats()
    assert _misses() == cold_misses
    for name in FRAME_WALK_CACHES:
        assert name in warm, f"{name} is not memoised"
        assert warm[name]["hits"] > cold[name]["hits"], name

    config = SystemConfig(
        bandwidth_mhz=1.4, reference_mode="decoded", sync_mode="circuit"
    )
    LScatterSystem(config, rng=0).run(payload_length=2000)
    first_misses = _misses()
    LScatterSystem(config, rng=1).run(payload_length=2000)
    assert _misses() == first_misses
