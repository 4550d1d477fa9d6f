"""Per-window SNR gate: erasure escalation of hopeless data windows."""

import numpy as np
import pytest

from repro.bsrx.demodulator import BackscatterDemodulator, window_snr_db
from repro.lte import LteTransmitter
from repro.tag.controller import TagController
from repro.tag.modulator import ChipModulator
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng

from tests.bsrx.test_batch_demod import _assert_same, _stacks


def _one_tag(snr_db, seed=0, n_frames=2):
    capture = LteTransmitter(1.4, rng=seed).transmit(n_frames)
    params = capture.params
    ambient = np.asarray(capture.samples, dtype=complex)
    controller = TagController(params)
    payload = make_rng(100).integers(0, 2, size=20000).astype(np.int8)
    schedule = controller.build_schedule(
        controller.genie_timing(0, 0), len(ambient), payload
    )
    hybrid = ChipModulator().reflect(ambient, schedule.chips)
    shifted = awgn(hybrid, snr_db, make_rng(200))
    half = params.samples_per_frame // 2
    halves = np.arange(0, len(shifted) - half + 1, half)
    return params, shifted, ambient, halves


def test_window_snr_db_separates_clean_from_noise():
    rng = make_rng(5)
    clean = np.where(rng.integers(0, 2, size=512) > 0, 1.0, -1.0)
    assert window_snr_db(clean) > 60.0
    noisy = clean + 3.0 * rng.normal(size=512)
    assert window_snr_db(noisy) < 10.0
    assert window_snr_db(np.zeros(16)) == -np.inf
    assert window_snr_db(np.array([])) == -np.inf


def test_window_snr_db_normalises_out_reference_power():
    """Ambient power fluctuation alone must not read as noise."""
    rng = make_rng(6)
    bits = np.where(rng.integers(0, 2, size=512) > 0, 1.0, -1.0)
    chip_power = rng.uniform(0.1, 4.0, size=512)
    soft = chip_power * bits  # noiseless matched filter over fading ambient
    assert window_snr_db(soft) < 10.0  # raw: fading masquerades as noise
    assert window_snr_db(soft, chip_power) > 60.0


def test_gate_disabled_by_default():
    params, shifted, ambient, halves = _one_tag(25.0)
    demod = BackscatterDemodulator(params)
    assert demod.snr_gate_db is None
    result = demod.demodulate(shifted, ambient, halves)
    assert not any(result.window_erased)


def test_gate_noop_on_clean_capture():
    """A clean link clears a 0 dB gate: identical output, no erasures."""
    params, shifted, ambient, halves = _one_tag(25.0)
    plain = BackscatterDemodulator(params).demodulate(shifted, ambient, halves)
    gated = BackscatterDemodulator(params, snr_gate_db=0.0).demodulate(
        shifted, ambient, halves
    )
    _assert_same(plain, gated)


def test_gate_erases_buried_windows():
    """Deep in noise, the gate turns garbage bits into erasures."""
    params, shifted, ambient, halves = _one_tag(-20.0)
    plain = BackscatterDemodulator(params).demodulate(shifted, ambient, halves)
    gated = BackscatterDemodulator(params, snr_gate_db=0.0).demodulate(
        shifted, ambient, halves
    )
    assert sum(gated.window_erased) > sum(plain.window_erased)
    # Erased windows still occupy their slots: same window count and
    # geometry, only the bits are surrendered.
    assert len(gated.window_erased) == len(plain.window_erased)
    np.testing.assert_array_equal(gated.starts, plain.starts)


def test_gate_batch_matches_scalar():
    """demodulate_many applies the gate window-for-window like demodulate."""
    params, shifted, reference, halves = _stacks(4)
    demod = BackscatterDemodulator(params, snr_gate_db=0.0)
    batched = demod.demodulate_many(shifted, reference, halves)
    for t in range(shifted.shape[0]):
        serial = demod.demodulate(shifted[t], reference[t], halves)
        _assert_same(serial, batched[t])
    # The mix's worst tag (2 dB AWGN) must actually trip the gate so the
    # equality above covers the erasure path, not just the clean one.
    assert any(any(r.window_erased) for r in batched)


def test_gate_threshold_orders_erasures():
    """A stricter gate erases at least as many windows."""
    params, shifted, ambient, halves = _one_tag(3.0)
    counts = []
    for gate in (-10.0, 0.0, 10.0):
        result = BackscatterDemodulator(params, snr_gate_db=gate).demodulate(
            shifted, ambient, halves
        )
        counts.append(sum(result.window_erased))
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[-1] > 0
