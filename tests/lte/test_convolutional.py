"""Tail-biting convolutional code and Viterbi tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.lte.coding import (
    conv_encode,
    viterbi_decode,
    viterbi_decode_many,
)
from repro.utils.rng import make_rng

from tests.lte.oracles import conv_encode_reference, viterbi_decode_reference


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


# -- one-sweep decoder vs the original argmax trellis ---------------------------


def _assert_matches_reference(llrs_list, n_bits_list):
    decoded = viterbi_decode_many(llrs_list, n_bits_list)
    expected = viterbi_decode_reference(llrs_list, n_bits_list)
    assert len(decoded) == len(expected)
    for index, (got, want) in enumerate(zip(decoded, expected)):
        assert got.dtype == want.dtype, index
        assert np.array_equal(got, want), index


def test_capture_batch_matches_reference():
    # The 20 transport blocks of a 2-frame 10 MHz capture, with AWGN LLRs.
    rng = make_rng(8)
    sizes = ([5090] + [5333] * 8 + [5250]) * 2
    llrs = []
    for n_bits in sizes:
        bits = rng.integers(0, 2, size=n_bits).astype(np.int8)
        clean = 1.0 - 2.0 * conv_encode(bits).astype(float)
        llrs.append(2.0 * (clean + rng.normal(0, 0.9, size=len(clean))))
    _assert_matches_reference(llrs, sizes)


def test_integer_zero_and_erased_llrs_match_reference():
    # Integer LLRs keep every path metric exact, so ties are real ties and
    # only the tie order decides; all-zero blocks are nothing but ties.
    rng = make_rng(9)
    sizes = [40, 40, 7, 200, 64, 64, 150]
    llrs = [rng.integers(-2, 3, size=3 * n).astype(float) for n in sizes[:4]]
    llrs += [np.zeros(3 * 64), np.zeros(3 * 64)]
    erased = rng.normal(0, 2.0, size=3 * 150)
    erased[rng.choice(len(erased), size=len(erased) // 2, replace=False)] = 0.0
    llrs.append(erased)
    _assert_matches_reference(llrs, sizes)


def test_wide_range_llrs_match_reference():
    # LLRs that make every step round.  One coded bit at 2**56 next to two
    # small integers exposes the order of the three-term correlation sum;
    # a 2**56-scale head before small integers exposes a normalisation
    # that is skipped or moved.
    rng = make_rng(11)
    llrs = []
    for column in range(3):
        steps = rng.integers(-7, 8, size=(300, 3)).astype(float)
        steps[:, column] *= 2.0**56
        llrs.append(steps.reshape(-1))
    head = rng.integers(-3, 4, size=(300, 3)).astype(float)
    head[:100] *= 2.0**56
    llrs.append(head.reshape(-1))
    _assert_matches_reference(llrs, [300] * 4)


def test_lengths_around_wrap_margin_match_reference():
    rng = make_rng(10)
    sizes = [1, 6, 95, 96, 97, 96, 1, 0]
    llrs = [rng.integers(-2, 3, size=3 * n).astype(float) for n in sizes]
    _assert_matches_reference(llrs, sizes)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.integers(1, 120).flatmap(
            lambda n: hnp.arrays(np.int64, 3 * n, elements=st.integers(-2, 2))
        ),
        min_size=1,
        max_size=6,
    )
)
def test_mixed_length_batches_match_reference_property(blocks):
    llrs = [block.astype(float) for block in blocks]
    _assert_matches_reference(llrs, [len(block) // 3 for block in blocks])


# -- malformed input -----------------------------------------------------------


def test_wrong_llr_count_names_block():
    with pytest.raises(ValueError, match=r"block 0: expected 33 LLRs .* got 30"):
        viterbi_decode(np.zeros(30), 11)


def test_ragged_batch_names_block():
    with pytest.raises(ValueError, match=r"block 1: expected 30 LLRs .* got 33"):
        viterbi_decode_many([np.zeros(30), np.zeros(33)], [10, 10])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_llr_names_block(bad):
    llrs = [np.ones(30), np.ones(30)]
    llrs[1][7] = bad
    with pytest.raises(ValueError, match=rf"block 1: LLR 7 is {bad}"):
        viterbi_decode_many(llrs, [10, 10])
