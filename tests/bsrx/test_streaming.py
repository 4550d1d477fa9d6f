"""Streaming demodulator: bit-identity to the whole-capture call.

Every test builds a real tag-on-ambient capture (transmitter -> tag
schedule -> reflection -> noise) and asserts the chunked receiver's
output — bits, soft values, absolute window starts, erasure flags, and
per-packet records — equals the single whole-capture
:meth:`BackscatterDemodulator.demodulate` call exactly, never just
approximately.
"""

import numpy as np
import pytest

from repro.bsrx.demodulator import BackscatterDemodulator
from repro.bsrx.streaming import StreamingDemodulator
from repro.lte import LteTransmitter
from repro.tag.controller import TagController
from repro.tag.modulator import ChipModulator
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng


def _capture(seed=0, n_frames=3, error_samples=5, snr_db=25.0):
    capture = LteTransmitter(1.4, rng=seed).transmit(n_frames)
    params = capture.params
    controller = TagController(params, rng=seed)
    payload = make_rng(seed + 1).integers(0, 2, size=20000).astype(np.int8)
    timing = controller.genie_timing(0, error_samples)
    schedule = controller.build_schedule(timing, len(capture.samples), payload)
    hybrid = ChipModulator().reflect(capture.samples, schedule.chips)
    if snr_db is not None:
        hybrid = awgn(hybrid, snr_db, make_rng(seed + 2))
    return params, hybrid, np.asarray(capture.samples, dtype=complex)


def _halves(params, n):
    half = params.samples_per_frame // 2
    return np.arange(0, n - half + 1, half)


def _assert_same(a, b):
    np.testing.assert_array_equal(a.bits, b.bits)
    np.testing.assert_array_equal(a.soft, b.soft)
    np.testing.assert_array_equal(a.starts, b.starts)
    assert list(a.window_erased) == list(b.window_erased)
    assert len(a.window_bits) == len(b.window_bits)
    for wa, wb in zip(a.window_bits, b.window_bits):
        np.testing.assert_array_equal(wa, wb)
    assert len(a.packets) == len(b.packets)
    for pa, pb in zip(a.packets, b.packets):
        assert pa.half_frame_start == pb.half_frame_start
        assert pa.slot == pb.slot
        assert pa.offset == pb.offset
        assert pa.model == pb.model
        assert pa.preamble_errors == pb.preamble_errors
        assert pa.gain == pb.gain
        assert pa.metric == pb.metric
        assert list(pa.data_starts) == list(pb.data_starts)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_chunked_demodulate_matches_whole_capture(chunk):
    params, hybrid, ref = _capture()
    halves = _halves(params, len(hybrid))
    whole = BackscatterDemodulator(params).demodulate(hybrid, ref, halves)
    streamed = StreamingDemodulator(params, chunk_half_frames=chunk).demodulate(
        hybrid, ref, halves
    )
    _assert_same(whole, streamed)


def test_ragged_push_matches_whole_capture():
    """Incremental pushes with arbitrary (mid-packet) chunk boundaries."""
    params, hybrid, ref = _capture(seed=2)
    half = params.samples_per_frame // 2
    halves = _halves(params, len(hybrid))
    whole = BackscatterDemodulator(params).demodulate(hybrid, ref, halves)

    streamer = StreamingDemodulator(params, chunk_half_frames=1)
    rng = make_rng(99)
    pos = 0
    max_step = 2 * half
    while pos < len(hybrid):
        step = int(rng.integers(37, max_step))
        hi = min(pos + step, len(hybrid))
        streamer.push(hybrid[pos:hi], ref[pos:hi])
        # The buffer only ever holds the unfinished tail.
        assert streamer.buffered_samples <= streamer.demodulator.half_frame_span + max_step
        pos = hi
    _assert_same(whole, streamer.finish())


def test_partial_trailing_half_frame_is_erasure_not_crash():
    """A capture that is not a whole number of half-frames demodulates:
    packets that still fit come out normally, data windows sliced off by
    the end of the capture come out as erasures — never an exception and
    never a silent drop of the whole tail."""
    params, hybrid, ref = _capture(seed=4)
    half = params.samples_per_frame // 2
    # Cut inside the 6th half-frame, landing mid-packet so at least one
    # data window starts before the cut but extends past it.
    cut = 5 * half + 2 * half // 3
    demod = BackscatterDemodulator(params)
    halves = np.arange(0, cut, half)  # includes the partial tail
    result = demod.demodulate(hybrid[:cut], ref[:cut], halves)

    assert any(result.window_erased), "truncated tail produced no erasure"
    assert all(int(s) < cut for s in result.starts)

    # The five full half-frames are untouched by the truncation: their
    # windows are bit-identical to the untruncated run's.
    full = demod.demodulate(hybrid, ref, _halves(params, len(hybrid)))
    n_head = int(np.sum(np.asarray(result.starts) < 5 * half))
    assert n_head == int(np.sum(np.asarray(full.starts) < 5 * half))
    for k in range(n_head):
        assert int(full.starts[k]) == int(result.starts[k])
        np.testing.assert_array_equal(full.window_bits[k], result.window_bits[k])


def test_streaming_matches_whole_capture_on_truncated_tail():
    params, hybrid, ref = _capture(seed=4)
    half = params.samples_per_frame // 2
    cut = 5 * half + 2 * half // 3
    halves = np.arange(0, cut, half)
    whole = BackscatterDemodulator(params).demodulate(
        hybrid[:cut], ref[:cut], halves
    )

    streamed = StreamingDemodulator(params, chunk_half_frames=2).demodulate(
        hybrid[:cut], ref[:cut], halves
    )
    _assert_same(whole, streamed)

    pushed = StreamingDemodulator(params, chunk_half_frames=2)
    mid = 3 * half + 17
    pushed.push(hybrid[:mid], ref[:mid])
    pushed.push(hybrid[mid:cut], ref[mid:cut])
    _assert_same(whole, pushed.finish())


def test_carry_tracks_grid_and_gain():
    params, hybrid, ref = _capture(seed=1)
    half = params.samples_per_frame // 2
    streamer = StreamingDemodulator(params, chunk_half_frames=1)
    streamer.push(hybrid, ref)
    assert streamer.carry.half_frames_done == len(hybrid) // half
    assert (
        streamer.carry.next_half_frame_start
        == streamer.carry.half_frames_done * half
    )
    # At high SNR at least one packet decoded, so the carried gain is the
    # last non-erased packet's path gain.
    result = streamer.finish()
    live = [p for p in result.packets if p.model in ("post-eq", "predistort")]
    assert live
    assert streamer.carry.last_gain == live[-1].gain
    assert streamer.carry.last_cascade is not None


def test_stream_misuse_rejected():
    params, hybrid, ref = _capture(seed=0, n_frames=1)
    with pytest.raises(ValueError):
        StreamingDemodulator(params, chunk_half_frames=0)
    streamer = StreamingDemodulator(params)
    with pytest.raises(ValueError):
        streamer.push(hybrid[:10], ref[:9])
    streamer.push(hybrid, ref)
    streamer.finish()
    with pytest.raises(RuntimeError):
        streamer.push(hybrid[:10], ref[:10])
    with pytest.raises(RuntimeError):
        streamer.finish()


def _traced_peak(fn):
    """``fn()`` and the peak bytes ``tracemalloc`` saw it allocate."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_streaming_peak_memory_below_whole_capture(tmp_path):
    """A memmapped 6-frame capture streamed in 2-half-frame chunks holds
    a smaller peak working set than the whole-capture call.

    Both streams are spilled to disk and re-opened read-only, the
    long-recording case where samples live on disk.  The whole-capture
    candidate materialises both arrays; the streamed one copies one chunk
    at a time.  The floor of 1.58 sits 25 % under the 2.11 ratio first
    recorded for this workload; peaks vary by ~0.4 % across runs.
    """
    from repro.core import LScatterSystem, SystemConfig

    chunk_half_frames = 2
    config = SystemConfig(
        bandwidth_mhz=1.4,
        n_frames=6,
        reference_mode="genie",
        sync_mode="model",
    )
    system = LScatterSystem(config, rng=7)
    front = system.run_frontend(payload_length=20000)

    def spill(name, values):
        path = tmp_path / f"{name}.iq"
        np.ascontiguousarray(values, dtype=np.complex128).tofile(path)
        return np.memmap(path, dtype=np.complex128, mode="r")

    shifted = spill("shifted", front.shifted_rx)
    reference = spill("reference", front.reference)
    half_starts = front.half_starts

    def whole_capture():
        return system.demodulator.demodulate(
            np.array(shifted), np.array(reference), half_starts
        )

    def streamed_capture():
        streamer = StreamingDemodulator(
            config.params, chunk_half_frames=chunk_half_frames
        )
        step = chunk_half_frames * (config.params.samples_per_frame // 2)
        for lo in range(0, len(shifted), step):
            streamer.push(
                np.array(shifted[lo:lo + step]), np.array(reference[lo:lo + step])
            )
        return streamer.finish()

    whole, whole_peak = _traced_peak(whole_capture)
    streamed, streamed_peak = _traced_peak(streamed_capture)
    np.testing.assert_array_equal(whole.bits, streamed.bits)
    np.testing.assert_array_equal(whole.soft, streamed.soft)
    np.testing.assert_array_equal(whole.starts, streamed.starts)
    ratio = whole_peak / streamed_peak
    assert ratio >= 1.58, (
        f"whole-capture / streamed peak = {whole_peak} / {streamed_peak} B "
        f"= {ratio:.3f}, below the 1.58 floor"
    )
