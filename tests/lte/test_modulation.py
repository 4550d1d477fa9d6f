"""QAM mapping/demapping tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lte.modulation import (
    BITS_PER_SYMBOL,
    constellation,
    demodulate_llr,
    modulate,
)
from repro.utils.rng import make_rng
from tests.lte.oracles import demodulate_llr_reference

SCHEMES = sorted(BITS_PER_SYMBOL)


def hard_decisions(symbols, scheme):
    """Bits from the LLR signs: each bit of the nearest constellation point."""
    return (demodulate_llr(symbols, scheme) < 0).astype(np.int8)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_unit_average_power(scheme):
    points = constellation(scheme)
    assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_constellation_size(scheme):
    assert len(constellation(scheme)) == 2 ** BITS_PER_SYMBOL[scheme]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_all_points_distinct(scheme):
    points = constellation(scheme)
    distances = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(distances, np.inf)
    assert distances.min() > 1e-6


@pytest.mark.parametrize("scheme", SCHEMES)
def test_hard_roundtrip(scheme):
    rng = make_rng(0)
    bits = rng.integers(0, 2, size=BITS_PER_SYMBOL[scheme] * 100).astype(np.int8)
    assert np.array_equal(hard_decisions(modulate(bits, scheme), scheme), bits)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), scheme=st.sampled_from(SCHEMES))
def test_roundtrip_property(data, scheme):
    n = BITS_PER_SYMBOL[scheme]
    bits = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=8 * n)), dtype=np.int8
    )
    bits = bits[: len(bits) - len(bits) % n]
    if len(bits) == 0:
        return
    assert np.array_equal(hard_decisions(modulate(bits, scheme), scheme), bits)


def test_gray_mapping_neighbours_differ_by_one_bit_qpsk():
    points = constellation("qpsk")
    # QPSK Gray: adjacent quadrants differ in exactly one bit.
    values = np.arange(4)
    for a in values:
        for b in values:
            hamming = bin(a ^ b).count("1")
            distance = abs(points[a] - points[b])
            if hamming == 1:
                assert distance < 1.5  # adjacent
            if hamming == 2:
                assert distance > 1.5  # diagonal


@pytest.mark.parametrize("scheme", SCHEMES)
def test_llr_sign_matches_bits_noiseless(scheme):
    rng = make_rng(1)
    bits = rng.integers(0, 2, size=BITS_PER_SYMBOL[scheme] * 64).astype(np.int8)
    llrs = demodulate_llr(modulate(bits, scheme), scheme, noise_variance=0.1)
    # Positive LLR = bit 0.
    decided = (llrs < 0).astype(np.int8)
    assert np.array_equal(decided, bits)


def test_llr_scales_with_noise_variance():
    symbols = modulate(np.array([0, 0], dtype=np.int8), "qpsk")
    llr_low = demodulate_llr(symbols, "qpsk", 0.1)
    llr_high = demodulate_llr(symbols, "qpsk", 1.0)
    assert np.all(np.abs(llr_low) > np.abs(llr_high))


def test_llr_per_symbol_noise_variance():
    symbols = modulate(np.array([0, 0, 0, 0], dtype=np.int8), "qpsk")
    llrs = demodulate_llr(symbols, "qpsk", np.array([0.1, 10.0]))
    assert abs(llrs[0]) > abs(llrs[2])


@pytest.mark.parametrize("per_symbol_noise", [False, True])
@pytest.mark.parametrize("scheme", ["qpsk", "16qam", "64qam"])
def test_llrs_equal_the_symbol_major_demapper(scheme, per_symbol_noise):
    """The ``(points, symbols)`` demapper gives the original
    ``(symbols, points)`` one's LLRs bit for bit: noisy symbols, exact
    constellation points, the origin (a tie for every bit) and far
    outliers."""
    rng = make_rng(5)
    bits = rng.integers(0, 2, size=BITS_PER_SYMBOL[scheme] * 3000).astype(np.int8)
    noisy = modulate(bits, scheme) + 0.3 * (
        rng.normal(size=3000) + 1j * rng.normal(size=3000)
    )
    symbols = np.concatenate(
        [noisy, constellation(scheme), [0.0, 1e3 - 7e2j, -1e-9 + 1e-9j]]
    )
    noise = rng.uniform(1e-3, 4.0, len(symbols)) if per_symbol_noise else 0.37
    llrs = demodulate_llr(symbols, scheme, noise)
    expected = demodulate_llr_reference(symbols, scheme, noise)
    assert llrs.tobytes() == expected.tobytes()


def test_wrong_bit_count_raises():
    with pytest.raises(ValueError):
        modulate(np.array([0, 1, 0], dtype=np.int8), "qpsk")


def test_qam16_ber_under_awgn_reasonable():
    rng = make_rng(2)
    bits = rng.integers(0, 2, size=4 * 20_000).astype(np.int8)
    symbols = modulate(bits, "16qam")
    noise = 0.1 * (rng.standard_normal(len(symbols)) + 1j * rng.standard_normal(len(symbols)))
    decided = hard_decisions(symbols + noise, "16qam")
    ber = np.mean(decided != bits)
    assert ber < 1e-3  # 17 dB SNR: 16-QAM is almost clean
