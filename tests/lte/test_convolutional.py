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
from repro.obs import metrics as obs_metrics
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
    return expected


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


# -- the algebraic fast path -----------------------------------------------------


def _fast_blocks():
    return obs_metrics.counters_snapshot().get("lte.viterbi_fast_blocks", 0)


def _is_fast(llrs, decoded):
    """Oracle for the fast path: no LLR below 2**-30 of the largest, and
    the hard decisions are the reference encoding of the decoded block."""
    magnitudes = np.abs(llrs)
    hard = (np.asarray(llrs) < 0).astype(np.int8)
    return (
        len(decoded) >= 6
        and magnitudes.min() > 2.0**-30 * magnitudes.max()
        and np.array_equal(conv_encode_reference(decoded), hard)
    )


def _assert_routed_like_reference(llrs_list, n_bits_list):
    """Decoded bits equal the reference's, and exactly the blocks whose
    hard decisions form a codeword (within the LLR-span guard) skip the
    sweep.  Returns how many did."""
    before = _fast_blocks()
    expected = _assert_matches_reference(llrs_list, n_bits_list)
    n_fast = sum(_is_fast(llrs, want) for llrs, want in zip(llrs_list, expected))
    assert _fast_blocks() - before == n_fast
    return n_fast


def _awgn_llrs(rng, bits, snr_db):
    sigma = 10.0 ** (-snr_db / 20.0)
    clean = 1.0 - 2.0 * conv_encode_reference(bits).astype(float)
    return 2.0 * (clean + rng.normal(0, sigma, size=len(clean))) / sigma**2


def test_noiseless_blocks_all_skip_the_sweep():
    rng = make_rng(12)
    sizes = [6, 7, 40, 96, 97, 5333]
    llrs = [
        _llrs_from_bits(conv_encode(rng.integers(0, 2, size=n).astype(np.int8)))
        for n in sizes
    ]
    assert _assert_routed_like_reference(llrs, sizes) == len(sizes)


@settings(max_examples=12, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(6, 10_700),
            st.floats(-3.0, 12.0),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_fast_path_matches_reference_property(specs):
    # Random AWGN blocks, plus a noiseless block that always takes the
    # fast path and a block with one erased bit that never does, so every
    # batch mixes the two routes.
    llrs, sizes = [], []
    for n_bits, snr_db, seed in specs:
        rng = make_rng(seed)
        bits = rng.integers(0, 2, size=n_bits).astype(np.int8)
        llrs.append(_awgn_llrs(rng, bits, snr_db))
        sizes.append(n_bits)
    rng = make_rng(specs[0][2] + 1)
    bits = rng.integers(0, 2, size=50).astype(np.int8)
    erased = _awgn_llrs(rng, bits, 6.0)
    erased[7] = 0.0
    llrs += [_llrs_from_bits(conv_encode_reference(bits)), erased]
    sizes += [50, 50]
    n_fast = _assert_routed_like_reference(llrs, sizes)
    assert 1 <= n_fast < len(sizes)


@pytest.mark.parametrize(
    "weak", [0.0, 2.0**-31, 2.0**-40], ids=["zero", "2**-31", "2**-40"]
)
def test_zero_or_tiny_llr_takes_the_sweep(weak):
    # A codeword's hard decisions, but one LLR is erased or below 2**-30
    # of the largest: only the sweep may decide such a block.
    bits = make_rng(13).integers(0, 2, size=64).astype(np.int8)
    llrs = _llrs_from_bits(conv_encode(bits), scale=1.0)
    llrs[10] *= weak
    assert _assert_routed_like_reference([llrs], [64]) == 0


def test_wide_range_codeword_block_takes_the_sweep():
    # Found by a random search: a codeword at |LLR| 2**60 with eight
    # coded bits at |LLR| 1.  Rounding in the sweep swallows the small
    # LLRs, so the trellis decodes a different message than the codeword
    # the hard decisions form; the LLR-span guard keeps the sweep's answer.
    bits = np.array([1, 0, 0, 1, 1, 1], dtype=np.int8)
    magnitudes = np.full(18, 2.0**60)
    magnitudes[[0, 1, 3, 6, 8, 11, 12, 14]] = 1.0
    llrs = _llrs_from_bits(conv_encode(bits), scale=1.0) * magnitudes
    assert not np.array_equal(viterbi_decode(llrs, 6), bits)
    assert _assert_routed_like_reference([llrs], [6]) == 0


def test_third_stream_is_checked_too():
    # d0 and d1 are message A's at |LLR| 1, d2 is message B's at |LLR| 50,
    # and B differs from A in one bit: the first two streams invert to A,
    # whose third stream disagrees with the hard decisions.
    rng = make_rng(14)
    message_a = rng.integers(0, 2, size=40).astype(np.int8)
    message_b = message_a.copy()
    message_b[17] ^= 1
    llrs = _llrs_from_bits(conv_encode(message_a), scale=1.0).reshape(-1, 3)
    llrs[:, 2] = _llrs_from_bits(conv_encode(message_b), scale=50.0)[2::3]
    llrs = llrs.reshape(-1)
    assert not np.array_equal(viterbi_decode(llrs, 40), message_a)
    assert _assert_routed_like_reference([llrs], [40]) == 0


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
