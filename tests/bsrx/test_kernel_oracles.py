"""The receiver kernel against the forms it replaced (``tests/bsrx/oracles.py``).

The offset search is a circular correlation in one ``fft_size``-point
round trip plus a cumulative-sum energy, the smoothing a sum of shifted
slices, and the equaliser one precomputed weight row per channel.  In
real arithmetic each equals its oracle; in floating point the outputs
must stay within ``BOUND`` of the oracle's, relative to the largest
magnitude in each row, and every offset must be equal.  The stacks are
shaped like one half-frame's preambles (2 tags x 10 packets) at the 1.4,
10 and 20 MHz numerologies, with the demodulator's nominal offset and
slack.
"""

import numpy as np
import pytest

from repro.bsrx.equalizer import (
    _circular_smooth_rows,
    equalize_symbol,
    estimate_channel_from_known,
)
from repro.bsrx.mod_offset import find_modulation_offset
from repro.tag.framing import preamble_bits
from repro.utils.rng import make_rng
from tests.bsrx.oracles import (
    circular_smooth_rows_reference,
    equalize_symbol_reference,
    estimate_channel_from_known_reference,
    find_modulation_offset_reference,
)

BOUND = 1e-12

#: (fft_size, n_chips) of the 1.4, 10 and 20 MHz numerologies.
NUMEROLOGIES = {1.4: (128, 72), 10.0: (1024, 600), 20.0: (2048, 1200)}
STACK = (2, 10)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_rows_close(got, want):
    """``|got - want| <= BOUND * max|want|`` along the last axis of each row."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want), axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= BOUND * scale)


def _symbols(bandwidth, kind, seed=0):
    """``(y, x, preamble)`` stacks of one half-frame's preambles."""
    fft, n_chips = NUMEROLOGIES[bandwidth]
    rng = make_rng(seed)
    preamble = preamble_bits(n_chips)
    x = _complex(rng, STACK + (fft,))
    if kind == "random":
        return _complex(rng, STACK + (fft,)), x, preamble
    # AWGN: each row carries the preamble at its own offset and gain.
    chips = np.ones(STACK + (fft,))
    offsets = rng.integers(0, fft - n_chips + 1, size=STACK)
    for index in np.ndindex(STACK):
        start = offsets[index]
        chips[index + (slice(start, start + n_chips),)] = 2.0 * preamble - 1.0
    gain = 0.5 * np.exp(2j * np.pi * rng.random(STACK))[..., None]
    y = gain * x * chips + 0.3 * _complex(rng, STACK + (fft,))
    # One all-zero capture row and one all-zero reference row.
    y[0, 3] = 0.0
    x[1, 7] = 0.0
    return y, x, preamble


def _assert_search_matches(y, x, preamble, nominal, slack):
    got = find_modulation_offset(y, x, preamble, nominal, slack)
    want = find_modulation_offset_reference(y, x, preamble, nominal, slack)
    np.testing.assert_array_equal(got.offset, want.offset)
    # One gain and one metric per row: each is its row's largest magnitude.
    for name in ("gain", "metric"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.all(np.abs(a - b) <= BOUND * np.abs(b)), name
    return got


@pytest.mark.parametrize("kind", ["random", "awgn"])
@pytest.mark.parametrize("bandwidth", sorted(NUMEROLOGIES))
def test_offset_search_matches_oracle(bandwidth, kind):
    fft, n_chips = NUMEROLOGIES[bandwidth]
    y, x, preamble = _symbols(bandwidth, kind)
    nominal = (fft - n_chips) // 2
    # The demodulator's full-guard search, a narrower one starting past
    # zero, and a slack that the clamp cuts at both ends.
    for slack in (nominal, nominal // 3, nominal + 17):
        got = _assert_search_matches(y, x, preamble, nominal, slack)
    if kind == "awgn":
        # The all-zero rows correlate to nothing at all.
        assert got.gain[0, 3] == 0 and got.metric[0, 3] == 0
        assert got.gain[1, 7] == 0 and got.metric[1, 7] == 0


@pytest.mark.parametrize("bandwidth", sorted(NUMEROLOGIES))
def test_offset_search_never_wraps(bandwidth):
    """A preamble that only fits by wrapping past the symbol is not found there."""
    fft, n_chips = NUMEROLOGIES[bandwidth]
    rng = make_rng(5)
    preamble = preamble_bits(n_chips)
    x = _complex(rng, (3, fft))
    chips = np.ones((3, fft))
    for row, start in enumerate((fft - n_chips + 1, fft - n_chips + 5, fft - 3)):
        signs = np.r_[2.0 * preamble - 1.0, np.ones(fft - n_chips)]
        chips[row] = np.roll(signs, start)
    y = x * chips
    nominal = (fft - n_chips) // 2
    got = _assert_search_matches(y, x, preamble, nominal, nominal + 40)
    assert np.all(got.offset <= fft - n_chips)


@pytest.mark.parametrize("bandwidth", sorted(NUMEROLOGIES))
def test_circular_smoothing_matches_oracle(bandwidth):
    fft, _ = NUMEROLOGIES[bandwidth]
    values = _complex(make_rng(1), STACK + (fft,))
    _assert_rows_close(
        _circular_smooth_rows(values), circular_smooth_rows_reference(values)
    )
    power = np.abs(values) ** 2
    _assert_rows_close(
        _circular_smooth_rows(power), circular_smooth_rows_reference(power).real
    )


@pytest.mark.parametrize("kind", ["random", "awgn"])
@pytest.mark.parametrize("bandwidth", sorted(NUMEROLOGIES))
def test_channel_estimate_and_equaliser_match_oracle(bandwidth, kind):
    fft, _ = NUMEROLOGIES[bandwidth]
    rng = make_rng(2)
    x = _complex(rng, STACK + (fft,))
    if kind == "random":
        y = _complex(rng, STACK + (fft,))
    else:
        # A three-tap channel and AWGN, circular over each symbol.
        taps = _complex(rng, 3) * np.array([1.0, 0.4, 0.2])
        response = np.fft.fft(np.r_[taps, np.zeros(fft - 3)])
        y = np.fft.ifft(np.fft.fft(x) * response) + 0.1 * _complex(rng, x.shape)
    channel = estimate_channel_from_known(y, x)
    _assert_rows_close(channel, estimate_channel_from_known_reference(y, x))
    _assert_rows_close(
        equalize_symbol(y, channel), equalize_symbol_reference(y, channel)
    )
