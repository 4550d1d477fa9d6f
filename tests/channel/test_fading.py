"""Fading-channel tests."""

import numpy as np
import pytest

from repro.channel.fading import (
    FadingChannel,
    scatter_fraction,
    tdl_taps,
    venue_k_factor_db,
)
from repro.utils.rng import make_rng


def test_taps_unit_mean_power():
    rng = make_rng(0)
    powers = [np.sum(np.abs(tdl_taps(4, 3.0, rng=rng)) ** 2) for _ in range(3000)]
    assert np.mean(powers) == pytest.approx(1.0, abs=0.05)


def test_rician_k_controls_scatter():
    rng = make_rng(1)
    k_db = 20.0
    taps = [tdl_taps(3, 3.0, rician_k_db=k_db, rng=rng) for _ in range(3000)]
    los = np.sqrt(10 ** (k_db / 10) / (10 ** (k_db / 10) + 1))
    scatter_power = np.mean(
        [np.sum(np.abs(t) ** 2) - 2 * los * t[0].real + los**2 for t in taps]
    )
    assert scatter_power == pytest.approx(scatter_fraction(k_db), rel=0.15)


def test_flat_channel_identity():
    channel = FadingChannel.flat()
    x = np.arange(10, dtype=complex)
    assert np.array_equal(channel.apply(x), x)


def test_apply_preserves_length():
    rng = make_rng(2)
    channel = FadingChannel.rayleigh(n_taps=5, rng=rng)
    x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    assert len(channel.apply(x)) == 1000


def test_apply_is_fir_filtering():
    taps = np.array([1.0, 0.5j])
    channel = FadingChannel(taps=taps)
    x = np.array([1.0, 0.0, 0.0], dtype=complex)
    out = channel.apply(x)
    assert np.allclose(out, [1.0, 0.5j, 0.0])


def test_flat_gain_is_tap_sum():
    channel = FadingChannel(taps=np.array([0.6, 0.3 + 0.1j]))
    assert channel.flat_gain == pytest.approx(0.9 + 0.1j)


def test_need_at_least_one_tap():
    with pytest.raises(ValueError):
        tdl_taps(0, 3.0)


def test_k_factor_shrinks_with_distance():
    near = venue_k_factor_db("smart_home", 2.0)
    far = venue_k_factor_db("smart_home", 25.0)
    assert near > far


def test_k_factor_outdoor_higher_at_range():
    indoor = venue_k_factor_db("smart_home", 100.0)
    outdoor = venue_k_factor_db("outdoor", 100.0)
    assert outdoor > indoor


def test_outdoor_street_uses_outdoor_branch():
    assert venue_k_factor_db("outdoor_street", 50.0) == venue_k_factor_db(
        "outdoor", 50.0
    )


def test_nlos_penalty():
    los = venue_k_factor_db("smart_home", 5.0)
    nlos = venue_k_factor_db("smart_home", 5.0, nlos=True)
    assert los - nlos == pytest.approx(12.0)


def test_scatter_fraction_limits():
    assert scatter_fraction(30.0) < 0.001
    assert scatter_fraction(0.0) == pytest.approx(0.5)


def _relative_error(got, expected):
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    return float(np.max(np.abs(got - expected), initial=0.0)) / scale


@pytest.mark.parametrize("n_taps", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_samples", [0, 1, 2, 307_200])
def test_apply_matches_np_convolve(n_taps, n_samples):
    rng = make_rng(100 + n_taps)
    taps = rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
    x = rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
    # np.convolve rejects an empty input; the empty capture filters to empty.
    expected = np.convolve(x, taps)[:n_samples] if n_samples else x
    out = FadingChannel(taps=taps).apply(x)
    assert out.shape == (n_samples,)
    assert _relative_error(out, expected) <= 1e-12


def test_apply_leaves_input_untouched_and_accepts_read_only():
    rng = make_rng(4)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    original = x.copy()
    x.setflags(write=False)
    channel = FadingChannel(taps=np.array([0.9, 0.3 - 0.2j, 0.1j]))
    out = channel.apply(x)
    assert np.array_equal(x, original)
    assert out is not x and out.flags.writeable
    assert _relative_error(out, np.convolve(original, channel.taps)[:64]) <= 1e-12


@pytest.mark.parametrize(
    "taps",
    [
        [],
        np.zeros((2, 2), dtype=complex),
        [1.0, np.nan],
        [1.0 + 0j, complex(0.0, np.inf)],
    ],
)
def test_invalid_taps_rejected(taps):
    with pytest.raises(ValueError, match="taps"):
        FadingChannel(taps=taps)
