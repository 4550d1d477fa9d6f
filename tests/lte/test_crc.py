"""CRC tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lte.coding import crc_attach, crc_check, crc_compute
from repro.utils.rng import make_rng
from tests.lte.oracles import crc_compute_reference

KINDS = ("crc24a", "crc16", "crc8")
LENGTHS = {"crc24a": 24, "crc16": 16, "crc8": 8}


@pytest.mark.parametrize("kind", KINDS)
def test_parity_length(kind):
    parity = crc_compute(np.ones(40, dtype=np.int8), kind)
    assert len(parity) == LENGTHS[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_attach_check_roundtrip(kind):
    rng = make_rng(0)
    payload = rng.integers(0, 2, size=100).astype(np.int8)
    recovered, ok = crc_check(crc_attach(payload, kind), kind)
    assert ok
    assert np.array_equal(recovered, payload)


@pytest.mark.parametrize("kind", KINDS)
def test_single_bit_error_detected(kind):
    rng = make_rng(1)
    payload = rng.integers(0, 2, size=64).astype(np.int8)
    block = crc_attach(payload, kind)
    for position in (0, len(block) // 2, len(block) - 1):
        corrupted = block.copy()
        corrupted[position] ^= 1
        _, ok = crc_check(corrupted, kind)
        assert not ok


def test_burst_error_detected():
    rng = make_rng(2)
    payload = rng.integers(0, 2, size=200).astype(np.int8)
    block = crc_attach(payload, "crc24a")
    corrupted = block.copy()
    corrupted[50:70] ^= 1
    _, ok = crc_check(corrupted, "crc24a")
    assert not ok


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_roundtrip_property(bits):
    payload = np.array(bits, dtype=np.int8)
    recovered, ok = crc_check(crc_attach(payload))
    assert ok and np.array_equal(recovered, payload)


def test_all_zero_payload_zero_crc():
    # CRCs of all-zero messages are zero for these generators.
    assert crc_compute(np.zeros(32, dtype=np.int8)).sum() == 0


def test_unknown_kind_rejected():
    for fn in (crc_compute, crc_attach, crc_check):
        with pytest.raises(ValueError, match="crc32"):
            fn(np.zeros(32, dtype=np.int8), "crc32")


def test_block_shorter_than_crc_rejected():
    with pytest.raises(ValueError):
        crc_check(np.zeros(10, dtype=np.int8), "crc24a")


#: Block lengths the syndrome-table CRC is pinned on: every short length
#: (including the empty block and each power-of-two boundary up to 64),
#: plus transport-block scale.
ORACLE_LENGTHS = (*range(71), 1000, 9000, 30000)


def _oracle_cases(n, rng):
    yield rng.integers(0, 2, size=n).astype(np.int8)
    yield np.ones(n, dtype=np.int8)
    if n:
        for position in (0, n - 1):
            single = np.zeros(n, dtype=np.int8)
            single[position] = 1
            yield single


@pytest.mark.parametrize("kind", KINDS)
def test_table_crc_matches_bit_serial_oracle(kind):
    rng = make_rng(3)
    for n in ORACLE_LENGTHS:
        for bits in _oracle_cases(n, rng):
            expected = crc_compute_reference(bits, kind)
            assert np.array_equal(crc_compute(bits, kind), expected), (kind, n)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.lists(st.integers(0, 1), min_size=0, max_size=600),
)
def test_table_crc_matches_oracle_property(kind, bits):
    bits = np.array(bits, dtype=np.int8)
    assert np.array_equal(crc_compute(bits, kind), crc_compute_reference(bits, kind))


def test_syndrome_table_is_a_registered_cache():
    from repro.utils.cache import cache_stats

    crc_compute(np.ones(100, dtype=np.int8), "crc16")
    crc_compute(np.ones(120, dtype=np.int8), "crc16")
    stats = cache_stats()["repro.lte.coding.crc._syndromes"]
    assert stats["hits"] >= 1 and stats["currsize"] >= 1
