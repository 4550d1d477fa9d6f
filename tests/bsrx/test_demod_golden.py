"""Golden receiver decisions across bandwidths, receivers and capture cuts.

The 1.4 and 10 MHz digests below were recorded on the receiver's original
per-tag scalar core, and the 20 MHz ones (the paper's 2 048-point,
1 200-chip numerology) on the batched kernel with ``fftconvolve`` offset
search.  Every entry point must reproduce them: the whole-capture
``demodulate`` and the stacked ``demodulate_many`` (one digest per tag of
a 4-tag mix whose sync errors, gains and SNRs differ, so post-eq,
predistort, erased and truncated packets all occur).

Each digest is the first 16 hex digits of a SHA-256 over the tag's bits,
window starts and erasure flags, then every packet's
``(slot, offset, model, preamble_errors)``.  Soft values are left out on
purpose: their last ulp depends on the machine's FFT and SIMD code paths,
so pinning them would make the goldens non-portable.

The grid is bandwidth {1.4, 10, 20} MHz x receiver {default, erasure
threshold 0.35 with a 0 dB SNR gate} x capture {whole, cut inside the PSS
sounding, cut inside a preamble, cut inside a data symbol, cut exactly on
a symbol boundary}; every cut lands in the last half-frame.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.bsrx.demodulator import BackscatterDemodulator
from repro.lte import LteTransmitter
from repro.lte.ofdm import frame_layout
from repro.lte.pss import PSS_SYMBOL_IN_SLOT
from repro.lte.resource_grid import symbol_index
from repro.tag.controller import TagController
from repro.tag.modulator import ChipModulator
from repro.utils.dsp import awgn
from repro.utils.rng import make_rng

from tests.bsrx.test_batch_demod import _TAG_MIX

N_TAGS = 4
BANDWIDTHS = (1.4, 10.0, 20.0)
RECEIVERS = {
    "default": {},
    "gated": {"erasure_threshold": 0.35, "snr_gate_db": 0.0},
}
CAPTURES = ("whole", "sounding", "preamble", "data", "boundary")

GOLDEN = {
    (1.4, "default", "whole"): (
        "661a87b3a9c935ef", "9ef8333a6b1d8811", "98d4db14517a76d0", "39d3a70884ad2504",
    ),
    (1.4, "default", "sounding"): (
        "8a62efda41c2083d", "a27aa81c41fc789a", "5b92f3d5e7e4d024", "793c8711e3c94e58",
    ),
    (1.4, "default", "preamble"): (
        "6326ef48488b2e6a", "258d033deaee183f", "258682641a667313", "f1204bfa36d67b5b",
    ),
    (1.4, "default", "data"): (
        "092b27ede20cd16e", "13026832d0df5b56", "e717d3fdfc111323", "1fd66f52534f35d2",
    ),
    (1.4, "default", "boundary"): (
        "d2e3a441623cfee6", "08ed71075a54ec01", "644b9968a0f5e664", "93731b8c39807147",
    ),
    (1.4, "gated", "whole"): (
        "661a87b3a9c935ef", "47ccd7690233076b", "ac4a9b5de648bb75", "b9658c426951329c",
    ),
    (1.4, "gated", "sounding"): (
        "8a62efda41c2083d", "6c2f490e9f1ca48f", "91e9e9004f3d7d26", "424b8a63b3e75faa",
    ),
    (1.4, "gated", "preamble"): (
        "6326ef48488b2e6a", "f2925c9e14153cfd", "960b80c13695b528", "4f53ca76af5b876a",
    ),
    (1.4, "gated", "data"): (
        "092b27ede20cd16e", "2550db512f8896f5", "f16c628eeb190b93", "e6f67c2942832ffe",
    ),
    (1.4, "gated", "boundary"): (
        "d2e3a441623cfee6", "7981084bdeca4f50", "d9ba87ed1158d052", "a1a63ff944ecdedd",
    ),
    (10.0, "default", "whole"): (
        "80b076997ecdd380", "ce44f90a59efa28d", "3bd0369c1a5c58af", "5eca09c7f030e285",
    ),
    (10.0, "default", "sounding"): (
        "f757b6bb6fd69497", "49dd087d6dec7791", "5e6f96420f035466", "b1cfe90377b6ef63",
    ),
    (10.0, "default", "preamble"): (
        "5f67eeef7164d57b", "32aa6c031894f352", "bb4f9238a23aa08e", "f2a62884536c7053",
    ),
    (10.0, "default", "data"): (
        "bd122acbbbb0ec90", "c577b1e905822980", "35bcce808ef43053", "e563782b91b8a566",
    ),
    (10.0, "default", "boundary"): (
        "30d2daec61adc658", "27ef54baf2fb0a22", "1add1badd6c04171", "4c28ffab26251317",
    ),
    (10.0, "gated", "whole"): (
        "80b076997ecdd380", "5af7bbbdd0def580", "e79edc96adba1177", "d42c81a6ac39933d",
    ),
    (10.0, "gated", "sounding"): (
        "f757b6bb6fd69497", "a69b4b7514854821", "55da5a62e18186dc", "9ef84b6c1f7b5a84",
    ),
    (10.0, "gated", "preamble"): (
        "5f67eeef7164d57b", "a13bb087a845fe3e", "7365b1186910ab5d", "e0ef1f306034c903",
    ),
    (10.0, "gated", "data"): (
        "bd122acbbbb0ec90", "b767bfa15f0324f0", "526d1015f8af1dea", "523910623c8dadc0",
    ),
    (10.0, "gated", "boundary"): (
        "30d2daec61adc658", "efe5cd1e10a8e302", "f41ef1745890eaac", "ae8336697d6a15a8",
    ),
    (20.0, "default", "whole"): (
        "337c10a72bc29084", "e9cf987a93bc0ea7", "81d997cdd2dbd2b2", "2a429e2c25b68585",
    ),
    (20.0, "default", "sounding"): (
        "5aef09a593527bb2", "240b0e432ad109fb", "7a2729b21d5a8d9b", "6d316dd17681f07e",
    ),
    (20.0, "default", "preamble"): (
        "960cc102c98f81c9", "dc94508beeede0a8", "88b1af0a05534f9c", "ba0e03d04e44133f",
    ),
    (20.0, "default", "data"): (
        "a43655cd8572db98", "00054723940576be", "1f88a6c2446321b5", "1dbd75a8abf4147f",
    ),
    (20.0, "default", "boundary"): (
        "c23eebf6a4bf1939", "9b26735f9304204f", "639eb800957e1fce", "6d30e77e2a1aaebc",
    ),
    (20.0, "gated", "whole"): (
        "337c10a72bc29084", "de3b327e3036513c", "d30e6e62487d467e", "1c12f08d0328a7c3",
    ),
    (20.0, "gated", "sounding"): (
        "5aef09a593527bb2", "04ce3e0266d8390a", "b987ea75531714a6", "22c79920c0d3f444",
    ),
    (20.0, "gated", "preamble"): (
        "960cc102c98f81c9", "054b6f0ce329575e", "f8d76f60a36347a3", "f3c7daa6af6e2266",
    ),
    (20.0, "gated", "data"): (
        "a43655cd8572db98", "02c66c93920d2bcb", "8367a76e929600b4", "9aaa5fd200bbff49",
    ),
    (20.0, "gated", "boundary"): (
        "c23eebf6a4bf1939", "7d3a8b34436b8291", "2fb23ce92c2998f1", "0a3cd4e02c9504c7",
    ),
}


@functools.lru_cache(maxsize=None)
def _mix(bandwidth, n_frames=2, seed=0):
    """A ``_stacks``-style 4-tag mix on one shared ambient at ``bandwidth``."""
    capture = LteTransmitter(bandwidth, rng=seed).transmit(n_frames)
    params = capture.params
    ambient = np.asarray(capture.samples, dtype=complex)
    rows = []
    for t in range(N_TAGS):
        error, gain, snr = _TAG_MIX[t % len(_TAG_MIX)]
        controller = TagController(params)
        payload = make_rng(100 + t).integers(0, 2, size=20000).astype(np.int8)
        timing = controller.genie_timing(0, error)
        schedule = controller.build_schedule(timing, len(ambient), payload)
        hybrid = gain * ChipModulator().reflect(ambient, schedule.chips)
        rows.append(awgn(hybrid, snr, make_rng(200 + t)))
    return params, np.stack(rows), np.stack([ambient] * N_TAGS)


def _cut(params, n_samples, capture):
    """Samples kept for ``capture``; every cut falls in the last half-frame."""
    half = params.samples_per_frame // 2
    last = n_samples - half
    fft = params.fft_size
    layout = frame_layout(params)

    def useful(slot, sym):
        return last + int(layout.useful_starts[symbol_index(slot, sym)])

    return {
        "whole": n_samples,
        "sounding": useful(0, PSS_SYMBOL_IN_SLOT) + fft // 2,
        "preamble": useful(4, 0) + fft // 2,
        "data": useful(6, 3) + fft // 3,
        # The end of symbol (7, 2) is the start of symbol (7, 3): the
        # window that ends exactly on the cut still fits.
        "boundary": last + int(layout.starts[symbol_index(7, 3)]),
    }[capture]


def _case(bandwidth, capture):
    params, shifted, reference = _mix(bandwidth)
    cut = _cut(params, shifted.shape[1], capture)
    halves = np.arange(0, cut, params.samples_per_frame // 2)
    return params, shifted[:, :cut], reference[:, :cut], halves


def _digest(result):
    h = hashlib.sha256()
    h.update(np.asarray(result.bits, dtype=np.int8).tobytes())
    h.update(np.asarray(result.starts, dtype=np.int64).tobytes())
    h.update(np.asarray(result.window_erased, dtype=bool).tobytes())
    for p in result.packets:
        fields = (int(p.slot), int(p.offset), str(p.model), int(p.preamble_errors))
        h.update(repr(fields).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("capture", CAPTURES)
@pytest.mark.parametrize("receiver", sorted(RECEIVERS))
@pytest.mark.parametrize("bandwidth", BANDWIDTHS)
def test_demod_matches_golden(bandwidth, receiver, capture):
    params, shifted, reference, halves = _case(bandwidth, capture)
    demod = BackscatterDemodulator(params, **RECEIVERS[receiver])
    expected = GOLDEN[(bandwidth, receiver, capture)]
    many = demod.demodulate_many(shifted, reference, halves)
    assert tuple(_digest(r) for r in many) == expected
    single = tuple(
        _digest(demod.demodulate(shifted[t], reference[t], halves))
        for t in range(N_TAGS)
    )
    assert single == expected


def test_grid_reaches_every_packet_model():
    """The goldens prove little unless the grid exercises every branch."""
    models = set()
    erased = 0
    for bandwidth in BANDWIDTHS:
        for capture in CAPTURES:
            params, shifted, reference, halves = _case(bandwidth, capture)
            demod = BackscatterDemodulator(params, **RECEIVERS["gated"])
            for result in demod.demodulate_many(shifted, reference, halves):
                models.update(p.model for p in result.packets)
                erased += result.n_erased_windows
    assert models == {"post-eq", "predistort", "erased", "truncated"}
    assert erased > 0
