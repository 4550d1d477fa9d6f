"""CFO estimation/correction tests."""

import numpy as np
import pytest

from repro.lte import LteTransmitter
from repro.lte.cfo import apply_cfo, correct_cfo, estimate_cfo
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng

from tests.lte.oracles import estimate_cfo_loop


@pytest.fixture(scope="module")
def capture():
    return LteTransmitter(1.4, rng=0).transmit(1)


def test_apply_cfo_rotates_spectrum(capture):
    fs = capture.params.sample_rate_hz
    impaired = apply_cfo(capture.samples, 1000.0, fs)
    # Power is preserved; samples rotate.
    assert np.mean(np.abs(impaired) ** 2) == pytest.approx(
        np.mean(np.abs(capture.samples) ** 2)
    )
    assert not np.allclose(impaired, capture.samples)


@pytest.mark.parametrize("cfo_hz", [-2000.0, -340.0, 150.0, 680.0, 3000.0])
def test_estimate_recovers_offset(capture, cfo_hz):
    fs = capture.params.sample_rate_hz
    impaired = apply_cfo(capture.samples, cfo_hz, fs)
    estimated = estimate_cfo(impaired, capture.params)
    assert estimated == pytest.approx(cfo_hz, abs=5.0)


def test_estimate_with_noise(capture):
    fs = capture.params.sample_rate_hz
    rng = make_rng(1)
    impaired = awgn(apply_cfo(capture.samples, 500.0, fs), 10.0, rng)
    estimated = estimate_cfo(impaired, capture.params)
    assert estimated == pytest.approx(500.0, abs=30.0)


def test_correct_inverts_apply(capture):
    fs = capture.params.sample_rate_hz
    impaired = apply_cfo(capture.samples, 777.0, fs)
    restored = correct_cfo(impaired, 777.0, fs)
    assert np.allclose(restored, capture.samples, atol=1e-12)


def test_zero_cfo_estimates_near_zero(capture):
    assert abs(estimate_cfo(capture.samples, capture.params)) < 2.0


def test_short_capture_rejected(capture):
    with pytest.raises(ValueError):
        estimate_cfo(capture.samples[:10], capture.params)
    with pytest.raises(ValueError):
        estimate_cfo_loop(capture.samples[:10], capture.params)


def test_vectorised_matches_pinned_loop(capture):
    """Golden equivalence against the pre-vectorisation implementation.

    Only the order of the complex accumulation differs between the two,
    so the estimates agree to far below any physical resolution.
    """
    fs = capture.params.sample_rate_hz
    impaired = apply_cfo(capture.samples, 412.5, fs)
    params = capture.params
    # Full frame, exactly one symbol, mid-slot truncation, ragged tail.
    lengths = [
        len(impaired),
        params.cp_first + params.fft_size,
        params.samples_per_slot + 3 * (params.cp_other + params.fft_size) + 7,
        len(impaired) // 3,
    ]
    for n in lengths:
        for max_symbols in (140, 9, 1):
            vec = estimate_cfo(impaired[:n], params, max_symbols)
            loop = estimate_cfo_loop(impaired[:n], params, max_symbols)
            assert vec == pytest.approx(loop, abs=1e-6)


def test_truncated_capture_exits_cleanly(capture):
    """Regression: an incomplete trailing symbol must not change the result.

    The pre-fix control flow kept re-entering the symbol loop for every
    remaining slot after the first symbol failed to fit (the inner break
    only exited the slot).  Symbols tile back-to-back, so those extra
    iterations never contributed — the estimate over a truncated capture
    must equal the estimate over its whole-symbol prefix.
    """
    fs = capture.params.sample_rate_hz
    params = capture.params
    impaired = apply_cfo(capture.samples, -230.0, fs)
    # Cut mid-symbol: 5 whole symbols plus a partial sixth.
    n_whole = params.cp_first + params.fft_size + 4 * (
        params.cp_other + params.fft_size
    )
    truncated = impaired[: n_whole + 50]
    assert estimate_cfo(truncated, params) == pytest.approx(
        estimate_cfo(impaired[:n_whole], params), abs=1e-9
    )


def test_end_to_end_with_cfo():
    """The system corrects a realistic UE crystal error transparently."""
    from repro.core import LScatterSystem, SystemConfig

    clean = SystemConfig(bandwidth_mhz=1.4, n_frames=2, reference_mode="decoded")
    offset = SystemConfig(
        bandwidth_mhz=1.4, n_frames=2, reference_mode="decoded", ue_cfo_ppm=0.5
    )
    report_clean = LScatterSystem(clean, rng=2).run(payload_length=30_000)
    report_cfo = LScatterSystem(offset, rng=2).run(payload_length=30_000)
    assert report_cfo.lte_block_error_rate == 0.0
    assert report_cfo.ber < report_clean.ber + 5e-4
