"""Tail-biting convolutional code and Viterbi tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lte.coding import (
    conv_encode,
    viterbi_decode,
    viterbi_decode_many,
)
from repro.utils.rng import make_rng

from tests.lte.oracles import conv_encode_reference


def _llrs_from_bits(coded, scale=4.0):
    return scale * (1.0 - 2.0 * coded.astype(float))


def test_rate_one_third():
    bits = make_rng(0).integers(0, 2, size=40).astype(np.int8)
    assert len(conv_encode(bits)) == 120


def test_vectorised_encoder_matches_reference():
    rng = make_rng(1)
    for length in (7, 13, 64, 257):
        bits = rng.integers(0, 2, size=length).astype(np.int8)
        assert np.array_equal(conv_encode(bits), conv_encode_reference(bits))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=7, max_size=128))
def test_encoder_equivalence_property(bits):
    bits = np.array(bits, dtype=np.int8)
    assert np.array_equal(conv_encode(bits), conv_encode_reference(bits))


def test_tail_biting_start_equals_end_state():
    # Encoding a rotated message gives a rotated codeword (circularity).
    rng = make_rng(2)
    bits = rng.integers(0, 2, size=30).astype(np.int8)
    rotated = np.roll(bits, 3)
    coded = conv_encode(bits).reshape(-1, 3)
    coded_rot = conv_encode(rotated).reshape(-1, 3)
    assert np.array_equal(np.roll(coded, 3, axis=0), coded_rot)


def test_decode_noiseless():
    rng = make_rng(3)
    bits = rng.integers(0, 2, size=100).astype(np.int8)
    llrs = _llrs_from_bits(conv_encode(bits))
    assert np.array_equal(viterbi_decode(llrs, 100), bits)


def test_decode_with_bit_flips():
    rng = make_rng(4)
    bits = rng.integers(0, 2, size=200).astype(np.int8)
    coded = conv_encode(bits)
    llrs = _llrs_from_bits(coded)
    # Flip 5% of the coded bits: well within the free-distance margin.
    flips = rng.choice(len(llrs), size=len(llrs) // 20, replace=False)
    llrs[flips] = -llrs[flips]
    assert np.array_equal(viterbi_decode(llrs, 200), bits)


def test_decode_with_erasures():
    rng = make_rng(5)
    bits = rng.integers(0, 2, size=150).astype(np.int8)
    llrs = _llrs_from_bits(conv_encode(bits))
    erased = rng.choice(len(llrs), size=len(llrs) // 4, replace=False)
    llrs[erased] = 0.0
    assert np.array_equal(viterbi_decode(llrs, 150), bits)


def test_decode_with_gaussian_noise():
    rng = make_rng(6)
    bits = rng.integers(0, 2, size=500).astype(np.int8)
    clean = 1.0 - 2.0 * conv_encode(bits).astype(float)
    noisy = clean + rng.normal(0, 0.7, size=len(clean))  # ~3 dB Eb/N0
    decoded = viterbi_decode(noisy, 500)
    assert np.mean(decoded != bits) < 0.01


def test_batch_matches_single():
    rng = make_rng(7)
    blocks = [rng.integers(0, 2, size=n).astype(np.int8) for n in (50, 50, 80)]
    llrs = [_llrs_from_bits(conv_encode(b)) for b in blocks]
    batch = viterbi_decode_many(llrs, [len(b) for b in blocks])
    for decoded, original in zip(batch, blocks):
        assert np.array_equal(decoded, original)


def test_batch_length_mismatch_rejected():
    with pytest.raises(ValueError):
        viterbi_decode_many([np.zeros(30)], [10, 20])


def test_message_shorter_than_memory_rejected():
    with pytest.raises(ValueError):
        conv_encode(np.array([1, 0, 1], dtype=np.int8))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=10, max_size=96))
def test_decode_roundtrip_property(bits):
    bits = np.array(bits, dtype=np.int8)
    llrs = _llrs_from_bits(conv_encode(bits))
    assert np.array_equal(viterbi_decode(llrs, len(bits)), bits)
