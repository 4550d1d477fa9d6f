"""Analog sync-circuit tests (envelope detector + comparator)."""

import numpy as np
import pytest

from repro.lte import CellConfig, LteTransmitter
from repro.lte.sss import SSS_SYMBOL_IN_SLOT
from repro.tag.envelope import EnvelopeDetector
from repro.tag.sync_circuit import SyncCircuit
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def capture():
    return LteTransmitter(1.4, rng=0).transmit(8)


def test_envelope_is_nonnegative(capture):
    detector = EnvelopeDetector(capture.params.sample_rate_hz)
    trace = detector.detect(capture.samples)
    assert np.all(trace.envelope >= 0)


def test_envelope_peaks_at_sync_symbols(capture):
    params = capture.params
    detector = EnvelopeDetector(params.sample_rate_hz)
    trace = detector.detect(capture.samples)
    # After the first frame, the envelope during the PSS should exceed
    # the frame-wide average thanks to the sync power boost.
    frame = params.samples_per_frame
    pss_start = frame + params.symbol_start(0, 6)
    pss_level = trace.envelope[pss_start + 40 : pss_start + params.symbol_length(6)].mean()
    baseline = trace.envelope[frame : frame + params.samples_per_slot].mean()
    assert pss_level > 1.3 * baseline


def test_envelope_matches_direct_convolution_chain():
    """Overlap-add filtering leaves the envelope where direct FIR puts it.

    The oracle builds the same matched band-pass, rectifier and RC chain
    on ``np.convolve``, over a 10 MHz two-frame capture (307 200
    samples, well past one overlap-add block).
    """
    from scipy.signal import firwin

    from repro.tag.envelope import PSS_BANDWIDTH_HZ
    from repro.utils.dsp import rc_alpha, rc_lowpass

    wide = LteTransmitter(10, rng=2).transmit(2)
    fs = wide.params.sample_rate_hz
    taps = firwin(129, PSS_BANDWIDTH_HZ / 2.0, fs=fs)
    selected = np.convolve(wide.samples, taps, mode="same")
    expected = rc_lowpass(np.abs(selected), rc_alpha(25e-6, fs))
    envelope = EnvelopeDetector(fs).detect(wide.samples).envelope
    assert envelope.shape == expected.shape
    np.testing.assert_allclose(envelope, expected, rtol=0, atol=1e-12)


def test_edges_appear_every_5ms(capture):
    params = capture.params
    rng = make_rng(1)
    noisy = awgn(capture.samples, 25.0, rng)
    circuit = SyncCircuit(params.sample_rate_hz, rng=rng)
    result = circuit.process(noisy)
    spacing = np.diff(result.edge_times)
    assert len(result.edges) >= 10
    assert np.allclose(spacing, 5e-3, atol=2e-4)


def test_errors_match_paper_band(capture):
    params = capture.params
    rng = make_rng(2)
    noisy = awgn(capture.samples, 25.0, rng)
    circuit = SyncCircuit(params.sample_rate_hz, rng=rng)
    result = circuit.process(noisy)
    sync_start = params.symbol_start(0, SSS_SYMBOL_IN_SLOT) / params.sample_rate_hz
    true_times = sync_start + 5e-3 * np.arange(16)
    errors = result.errors_vs(true_times, tolerance_seconds=2e-4) * 1e6
    assert len(errors) >= 10
    # Paper Fig. 31: errors are tens of microseconds, positive (delay).
    assert 15.0 < np.mean(errors) < 55.0
    assert np.std(errors) < 12.0


def test_warmup_suppresses_startup_edges(capture):
    params = capture.params
    circuit = SyncCircuit(params.sample_rate_hz, rng=0, warmup_seconds=12e-3)
    result = circuit.process(capture.samples)
    assert np.all(result.edges >= int(12e-3 * params.sample_rate_hz))


def test_comparator_delay_shifts_edges(capture):
    params = capture.params
    fast = SyncCircuit(
        params.sample_rate_hz, rng=0, propagation_delay_seconds=0.0, jitter_seconds=0.0
    ).process(capture.samples)
    slow = SyncCircuit(
        params.sample_rate_hz, rng=0, propagation_delay_seconds=50e-6, jitter_seconds=0.0
    ).process(capture.samples)
    n = min(len(fast.edges), len(slow.edges))
    delta = (slow.edges[:n] - fast.edges[:n]) / params.sample_rate_hz
    assert np.allclose(delta, 50e-6, atol=2e-6)


def test_no_edges_in_pure_noise():
    rng = make_rng(3)
    fs = 1.92e6
    noise = (rng.standard_normal(80_000) + 1j * rng.standard_normal(80_000)) * 1e-6
    result = SyncCircuit(fs, rng=rng).process(noise)
    # Flat noise never exceeds 1.6x its own average for long.
    assert len(result.edges) <= 2


def _buried_boost_signal(fs, duration_s=0.04, floor=1.0, boost=1.35):
    """Constant-envelope carrier with a PSS-cadence boost too weak for the
    default 1.6x margin but clear of the relaxed 1.2x one."""
    n = int(duration_s * fs)
    amplitude = np.full(n, floor)
    period = int(5e-3 * fs)
    width = int(0.5e-3 * fs)
    for start in range(0, n, period):
        amplitude[start : start + width] = boost
    return amplitude.astype(complex)


def test_resync_budget_zero_is_bit_identical(capture):
    """A clean capture must not notice the adaptive-resync machinery."""
    params = capture.params
    noisy = awgn(capture.samples, 25.0, make_rng(4))
    legacy = SyncCircuit(params.sample_rate_hz, rng=0).process(noisy)
    adaptive = SyncCircuit(
        params.sample_rate_hz, rng=0, max_resync_attempts=3
    ).process(noisy)
    np.testing.assert_array_equal(legacy.edges, adaptive.edges)
    np.testing.assert_array_equal(legacy.comparator, adaptive.comparator)
    assert adaptive.resync_attempts == 0
    assert adaptive.threshold_margin == legacy.threshold_margin


def test_resync_recovers_buried_boost():
    """Margin backoff finds edges the first pass misses."""
    fs = 1.92e6
    signal = _buried_boost_signal(fs)
    single = SyncCircuit(fs, rng=0, jitter_seconds=0.0).process(signal)
    assert len(single.edges) == 0
    assert single.resync_attempts == 0

    adaptive = SyncCircuit(
        fs, rng=0, jitter_seconds=0.0, max_resync_attempts=3
    ).process(signal)
    assert len(adaptive.edges) >= 3
    assert 1 <= adaptive.resync_attempts <= 3
    assert adaptive.threshold_margin < 1.6
    # Recovered edges keep the 5 ms PSS cadence.
    spacing = np.diff(adaptive.edge_times)
    assert np.allclose(spacing, 5e-3, atol=3e-4)


def test_resync_backoff_is_bounded_at_margin_floor():
    """With nothing to find, the margin walks down and stops at the floor
    instead of burning the whole budget."""
    from repro.tag.sync_circuit import MIN_THRESHOLD_MARGIN

    fs = 1.92e6
    silence = np.zeros(40_000, dtype=complex)
    result = SyncCircuit(fs, rng=0, max_resync_attempts=10).process(silence)
    assert len(result.edges) == 0
    # 1.6 -> 1.2 -> floor: two attempts, then the floor short-circuits.
    assert result.resync_attempts == 2
    assert result.threshold_margin == MIN_THRESHOLD_MARGIN


def test_negative_resync_budget_rejected():
    from repro.core.config import SystemConfig

    with pytest.raises(ValueError, match="sync_resync_attempts"):
        SystemConfig(bandwidth_mhz=1.4, sync_resync_attempts=-1)
