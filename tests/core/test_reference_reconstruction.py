"""Reference reconstruction must stay sample-aligned with the capture."""

import numpy as np

from repro.core import LScatterSystem, SystemConfig
from repro.fleet.ambient import AmbientCache
from repro.lte.frame import FrameBuilder
from repro.lte.ofdm import modulate_frame
from repro.lte.receiver import LteDecodeResult, SubframeResult


def _make_system(n_frames=3):
    config = SystemConfig(
        bandwidth_mhz=1.4,
        n_frames=n_frames,
        reference_mode="decoded",
        add_noise=False,
        multipath=False,
    )
    return LScatterSystem(config, rng=0)


def _decoded_subframes(capture, frame_numbers):
    """Perfect decode results (true payloads) for the given frames."""
    subframes = []
    for f in frame_numbers:
        for tb in capture.frames[f].transport_blocks:
            subframes.append(
                SubframeResult(
                    frame=f,
                    subframe=tb.subframe,
                    crc_ok=True,
                    payload_bits=len(tb.payload_bits),
                    decoded=tb.payload_bits,
                )
            )
    return subframes


def test_missing_frame_keeps_reference_sample_aligned():
    """Regression: a frame absent from the decode result was skipped
    outright, shortening the reference and misaligning every later frame.
    """
    system = _make_system()
    capture = system.prepare_ambient(rng=0).capture
    n = system.params.samples_per_frame
    # Frames 0 and 2 decode perfectly; frame 1 is absent entirely.
    lte_result = LteDecodeResult(
        subframes=_decoded_subframes(capture, (0, 2)), duration_seconds=0.03
    )
    direct_rx = 0.5 * capture.samples
    reference = system._reconstruct_reference(direct_rx, capture, lte_result)

    assert len(reference) == len(capture.samples)
    # Decoded frames re-synthesise the transmitted samples exactly, and —
    # critically — frame 2 lands at frame 2's sample offset.
    assert np.array_equal(reference[:n], capture.samples[:n])
    assert np.array_equal(reference[2 * n :], capture.samples[2 * n :])
    # The missing frame falls back to the received chunk, rescaled to the
    # transmitted reference power.
    chunk = reference[n : 2 * n]
    ref_power = np.mean(np.abs(capture.samples[:n]) ** 2)
    np.testing.assert_allclose(np.mean(np.abs(chunk) ** 2), ref_power, rtol=1e-9)


def test_crc_failed_frame_uses_scaled_received_chunk():
    system = _make_system(n_frames=2)
    capture = system.prepare_ambient(rng=0).capture
    n = system.params.samples_per_frame
    subframes = _decoded_subframes(capture, (0, 1))
    # One CRC failure in frame 1 poisons that frame's rebuild.
    subframes[-1].crc_ok = False
    lte_result = LteDecodeResult(subframes=subframes, duration_seconds=0.02)
    direct_rx = 0.25 * capture.samples
    reference = system._reconstruct_reference(direct_rx, capture, lte_result)

    assert len(reference) == len(capture.samples)
    assert np.array_equal(reference[:n], capture.samples[:n])
    # Frame 1: scaled received chunk (collinear with the capture, not equal).
    chunk = reference[n:]
    assert not np.array_equal(chunk, capture.samples[n:])
    np.testing.assert_allclose(
        np.mean(np.abs(chunk) ** 2),
        np.mean(np.abs(capture.samples[:n]) ** 2),
        rtol=1e-9,
    )


def test_genie_mode_returns_transmitted_samples():
    system = _make_system(n_frames=1)
    system.config.reference_mode = "genie"
    capture = system.prepare_ambient(rng=0).capture
    reference = system._reconstruct_reference(capture.samples, capture, None)
    assert reference is capture.samples


def _count_builds(monkeypatch):
    """Count the frames ``_reconstruct_reference`` rebuilds."""
    calls = []
    build = FrameBuilder.build

    def spy(self, frame_number=0, payloads=None):
        calls.append(frame_number)
        return build(self, frame_number=frame_number, payloads=payloads)

    monkeypatch.setattr(FrameBuilder, "build", spy)
    return calls


def _rebuild(system, frame_number, payloads):
    builder = FrameBuilder(system.params, system.config.cell, rng=0)
    return modulate_frame(builder.build(frame_number, payloads).grid)


def test_fully_decoded_frames_reuse_the_sent_grid(monkeypatch):
    """A frame whose decoded payloads are the ones sent is not rebuilt:
    its sent grid is the rebuild."""
    system = _make_system(n_frames=2)
    capture = system.prepare_ambient(rng=0).capture
    n = system.params.samples_per_frame
    lte_result = LteDecodeResult(
        subframes=_decoded_subframes(capture, (0, 1)), duration_seconds=0.02
    )
    expected = [
        _rebuild(system, f, [tb.payload_bits for tb in frame.transport_blocks])
        for f, frame in enumerate(capture.frames)
    ]
    builds = _count_builds(monkeypatch)
    reference = system._reconstruct_reference(None, capture, lte_result)
    assert builds == []
    assert np.array_equal(reference[:n], expected[0])
    assert np.array_equal(reference[n:], expected[1])


def test_passing_crcs_with_other_payloads_rebuild_from_the_decode(monkeypatch):
    """Every CRC passes but one decoded bit differs from what was sent (an
    undetected block error): the frame is rebuilt from what the UE
    decoded, not copied from the sent grid."""
    system = _make_system(n_frames=2)
    capture = system.prepare_ambient(rng=0).capture
    n = system.params.samples_per_frame
    subframes = _decoded_subframes(capture, (0, 1))
    flipped = subframes[13]
    flipped.decoded = flipped.decoded.copy()
    flipped.decoded[5] ^= 1
    lte_result = LteDecodeResult(subframes=subframes, duration_seconds=0.02)
    builds = _count_builds(monkeypatch)
    reference = system._reconstruct_reference(None, capture, lte_result)
    assert builds == [1]
    payloads = [sf.decoded for sf in subframes[10:]]
    assert np.array_equal(reference[:n], capture.samples[:n])
    assert np.array_equal(reference[n:], _rebuild(system, 1, payloads))
    assert not np.array_equal(reference[n:], capture.samples[n:])


def test_shared_ambient_capture_gives_the_in_process_reference(tmp_path):
    """A worker's capture (``AmbientHandle.load``) holds unit-normalised
    samples; the decoded reference it rebuilds equals the one built from
    the raw in-process capture."""
    system = _make_system(n_frames=2)
    capture = system.prepare_ambient(rng=0).capture
    lte_result = LteDecodeResult(
        subframes=_decoded_subframes(capture, (0, 1)), duration_seconds=0.02
    )
    cache = AmbientCache(scratch_dir=str(tmp_path))
    try:
        handle = cache.handle(system.config, 0, include_frames=True)
        loaded = handle.load().capture
        assert not np.array_equal(loaded.samples, capture.samples)
        reference = system._reconstruct_reference(None, loaded, lte_result)
    finally:
        cache.close()
    expected = system._reconstruct_reference(None, capture, lte_result)
    assert np.array_equal(reference, expected)
    assert np.array_equal(expected, capture.samples)
