"""Full LTE downlink receiver tests."""

import numpy as np
import pytest

from repro.channel.fading import FadingChannel
from repro.lte import CellConfig, LteReceiver, LteTransmitter, coding
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng


def test_clean_decode_all_crc_pass():
    cell = CellConfig(n_id_1=11, n_id_2=2)
    capture = LteTransmitter(1.4, cell=cell, rng=0).transmit(2)
    result = LteReceiver(capture.params, cell).decode(
        capture.samples, reference_frames=capture.frames
    )
    assert result.block_error_rate == 0.0
    assert result.evm_rms < 1e-9


def test_decoded_payloads_match_transmitted():
    cell = CellConfig()
    capture = LteTransmitter(1.4, cell=cell, rng=1).transmit(1)
    result = LteReceiver(capture.params, cell).decode(capture.samples)
    sent = {tb.subframe: tb.payload_bits for tb in capture.frames[0].transport_blocks}
    for sf in result.subframes:
        assert np.array_equal(sf.decoded, sent[sf.subframe])


def test_throughput_counts_only_crc_pass():
    cell = CellConfig()
    capture = LteTransmitter(1.4, cell=cell, rng=2).transmit(1)
    rx = LteReceiver(capture.params, cell)
    clean = rx.decode(capture.samples)
    # Crush the SNR: CRCs fail, throughput collapses.
    noisy = awgn(capture.samples, -10.0, make_rng(3))
    degraded = rx.decode(noisy)
    assert clean.throughput_bps > 0
    assert degraded.throughput_bps < clean.throughput_bps
    assert degraded.block_error_rate > 0.5


def test_decode_under_moderate_noise():
    cell = CellConfig()
    capture = LteTransmitter(1.4, cell=cell, rng=4).transmit(1)
    noisy = awgn(capture.samples, 12.0, make_rng(5))
    result = LteReceiver(capture.params, cell).decode(noisy)
    assert result.block_error_rate == 0.0  # rate-1/3 QPSK is robust at 12 dB


def test_decode_through_multipath():
    cell = CellConfig()
    capture = LteTransmitter(1.4, cell=cell, rng=6).transmit(1)
    fading = FadingChannel.rician(k_db=10.0, n_taps=3, rng=make_rng(7))
    faded = awgn(fading.apply(capture.samples), 20.0, make_rng(8))
    result = LteReceiver(capture.params, cell).decode(faded)
    assert result.block_error_rate <= 0.2


def test_higher_order_modulation_more_throughput():
    qpsk_cell = CellConfig(modulation="qpsk")
    qam_cell = CellConfig(modulation="64qam", code_rate=0.5)
    cap_qpsk = LteTransmitter(1.4, cell=qpsk_cell, rng=9).transmit(1)
    cap_qam = LteTransmitter(1.4, cell=qam_cell, rng=9).transmit(1)
    thpt_qpsk = LteReceiver(cap_qpsk.params, qpsk_cell).decode(cap_qpsk.samples)
    thpt_qam = LteReceiver(cap_qam.params, qam_cell).decode(cap_qam.samples)
    assert thpt_qam.throughput_bps > 2 * thpt_qpsk.throughput_bps
    assert thpt_qam.block_error_rate == 0.0


def test_short_capture_rejected():
    cell = CellConfig()
    rx = LteReceiver(1.4, cell)
    with pytest.raises(ValueError):
        rx.decode(np.zeros(100, complex))


def test_capture_decodes_in_one_viterbi_call(monkeypatch):
    cell = CellConfig()
    capture = LteTransmitter(1.4, cell=cell, rng=10).transmit(2)
    calls = []
    original = coding.viterbi_decode_many

    def spy(llrs_list, n_bits_list, *args, **kwargs):
        calls.append(len(llrs_list))
        return original(llrs_list, n_bits_list, *args, **kwargs)

    monkeypatch.setattr(coding, "viterbi_decode_many", spy)
    result = LteReceiver(capture.params, cell).decode(capture.samples)
    assert calls == [20]
    assert [(sf.frame, sf.subframe) for sf in result.subframes] == [
        (frame, subframe) for frame in range(2) for subframe in range(10)
    ]
    assert result.block_error_rate == 0.0


def test_crc_failures_stay_on_the_noisy_frame():
    cell = CellConfig()
    capture = LteTransmitter(1.4, cell=cell, rng=11).transmit(2)
    n = capture.params.samples_per_frame
    samples = capture.samples.copy()
    samples[n:] = awgn(samples[n:], -10.0, make_rng(12))
    result = LteReceiver(capture.params, cell).decode(samples)
    assert all(sf.crc_ok for sf in result.subframes if sf.frame == 0)
    assert not any(sf.crc_ok for sf in result.subframes if sf.frame == 1)
