"""Cross-module property-based tests (hypothesis).

Invariants that must hold for *any* input, spanning module boundaries:
OFDM transparency, schedule safety, link-model monotonicity, the
end-to-end "critical information" guarantee, and no undocumented NaN in
the report of any valid config.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.channel.link import LinkBudget
from repro.core import LScatterSystem, SystemConfig
from repro.core.link_budget import LScatterLinkModel
from repro.lte.modulation import BITS_PER_SYMBOL, demodulate_llr, modulate
from repro.lte.params import LteParams
from repro.substrates import available_substrates, get_substrate
from repro.tag.controller import TagController
from repro.utils.rng import make_rng

from tests.lte.oracles import demodulate_symbol, modulate_symbol


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_ofdm_transparent_for_any_subcarriers(seed):
    """IFFT+CP then FFT is exact for arbitrary complex subcarriers."""
    params = LteParams.from_bandwidth(1.4)
    rng = make_rng(seed)
    values = rng.standard_normal(72) + 1j * rng.standard_normal(72)
    for sym in (0, 3):
        samples = modulate_symbol(params, values, sym)
        recovered = demodulate_symbol(params, samples, sym)
        assert np.allclose(recovered, values, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    error=st.integers(min_value=-28, max_value=28),
    payload_len=st.integers(min_value=0, max_value=5000),
)
def test_schedule_never_touches_sync_region(error, payload_len):
    """For any in-guard timing error and payload, the PSS/SSS chips stay +1."""
    params = LteParams.from_bandwidth(1.4)
    controller = TagController(params)
    payload = make_rng(1).integers(0, 2, size=payload_len).astype(np.int8)
    schedule = controller.build_schedule(
        controller.genie_timing(0, error), params.samples_per_frame, payload
    )
    half = params.samples_per_frame // 2
    for half_index in (0, 1):
        lo = half_index * half + params.symbol_start(0, 5)
        hi = half_index * half + params.symbol_start(0, 6) + params.symbol_length(6)
        assert np.all(schedule.chips[lo:hi] == 1)


@settings(max_examples=25, deadline=None)
@given(
    d1=st.floats(min_value=1.0, max_value=30.0),
    d2a=st.floats(min_value=1.0, max_value=150.0),
    delta=st.floats(min_value=1.0, max_value=100.0),
)
def test_link_model_ber_monotone_in_distance(d1, d2a, delta):
    model = LScatterLinkModel(20.0, LinkBudget(venue="shopping_mall"))
    near = model.ber(d1, d2a)
    far = model.ber(d1, d2a + delta)
    assert far >= near - 1e-12


@settings(max_examples=25, deadline=None)
@given(
    d1=st.floats(min_value=1.0, max_value=40.0),
    d2=st.floats(min_value=1.0, max_value=200.0),
)
def test_link_prediction_internally_consistent(d1, d2):
    model = LScatterLinkModel(20.0, LinkBudget(venue="outdoor"))
    prediction = model.predict(d1, d2)
    assert 0.0 <= prediction.ber <= 0.5
    assert 0.0 <= prediction.sync_availability <= 1.0
    assert (
        prediction.throughput_bps
        <= prediction.raw_bit_rate_bps + 1e-9
    )


@settings(max_examples=15, deadline=None)
@given(
    scheme=st.sampled_from(sorted(BITS_PER_SYMBOL)),
    gain_db=st.floats(min_value=-30.0, max_value=10.0),
    phase=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_qam_decisions_invariant_to_known_flat_channel(scheme, gain_db, phase):
    """Equalising by the exact channel restores any constellation."""
    rng = make_rng(7)
    bits = rng.integers(0, 2, size=BITS_PER_SYMBOL[scheme] * 32).astype(np.int8)
    symbols = modulate(bits, scheme)
    g = 10 ** (gain_db / 20) * np.exp(1j * phase)
    equalized = (symbols * g) / g
    decided = (demodulate_llr(equalized, scheme) < 0).astype(np.int8)
    assert np.array_equal(decided, bits)


@settings(max_examples=10, deadline=None)
@given(n_frames=st.integers(min_value=1, max_value=3))
def test_capture_length_always_integral_frames(n_frames):
    from repro.lte import LteTransmitter

    capture = LteTransmitter(1.4, rng=0).transmit(n_frames)
    assert len(capture.samples) == n_frames * capture.params.samples_per_frame
    assert len(capture.frames) == n_frames


@settings(max_examples=10, deadline=None)
@given(
    ber=st.floats(min_value=0.0, max_value=0.2),
)
@example(ber=1e-12)
@example(ber=5e-324)
def test_coded_ber_never_worse_than_half(ber):
    from repro.tag.coding import hamming74_coded_ber, repetition_coded_ber

    assert 0.0 <= hamming74_coded_ber(ber) <= 0.5
    assert 0.0 <= repetition_coded_ber(ber) <= 0.5


# -- PR4: coding-chain roundtrip --------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    payload_len=st.integers(min_value=16, max_value=400),
    rate_factor=st.floats(min_value=1.0, max_value=3.0),
    c_init=st.integers(min_value=1, max_value=2**31 - 1),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_coding_chain_roundtrip_zero_noise(payload_len, rate_factor, c_init, seed):
    """scramble -> conv-encode -> rate-match -> decode is the identity.

    Under zero noise the receive chain must invert the transmit chain
    exactly, for any payload length and any rate-match factor >= 1
    (repetition only; puncturing deliberately discards parity and is not
    an identity even at zero noise).
    """
    from repro.lte import coding

    payload = make_rng(seed).integers(0, 2, size=payload_len).astype(np.int8)
    scrambled = coding.scramble_bits(payload, c_init)
    coded = coding.conv_encode(scrambled)
    target = int(np.ceil(len(coded) * rate_factor))
    matched = coding.rate_match(coded, target)

    # Zero-noise LLRs: positive means bit 0 (the demodulator convention).
    llrs = 1.0 - 2.0 * matched.astype(float)
    soft = coding.rate_recover(llrs, len(coded))
    decoded = coding.viterbi_decode(soft, payload_len)
    np.testing.assert_array_equal(decoded, scrambled)
    # Scrambling is an XOR with a Gold sequence: applying it again
    # descrambles, completing the identity back to the payload.
    np.testing.assert_array_equal(coding.scramble_bits(decoded, c_init), payload)


# -- PR4: align_windows invariants ------------------------------------------------


def _make_windows(starts):
    from repro.tag.controller import ChipWindow

    return [
        ChipWindow(start=int(s), n_chips=4, kind="data", bits=np.zeros(4, np.int8))
        for s in sorted(starts)
    ]


@settings(max_examples=30, deadline=None)
@given(
    schedule_starts=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12, unique=True
    ),
    demod_jitter=st.lists(
        st.integers(min_value=-600, max_value=600), min_size=0, max_size=12
    ),
    tolerance=st.integers(min_value=0, max_value=256),
    extra_tolerance=st.integers(min_value=0, max_value=256),
)
def test_align_windows_invariants(
    schedule_starts, demod_jitter, tolerance, extra_tolerance
):
    """One-to-one, order-preserving, and tolerance-monotone matching."""
    from repro.core.metrics import align_windows

    windows = _make_windows(schedule_starts)
    starts = sorted(schedule_starts)
    demod_starts = np.array(
        [starts[i % len(starts)] + j for i, j in enumerate(demod_jitter)],
        dtype=np.int64,
    )

    pairs = align_windows(windows, demod_starts, tolerance)

    # Every data window appears exactly once, in schedule order.
    assert [s for s, _ in pairs] == list(range(len(windows)))
    # One-to-one: no demodulated window satisfies two schedule windows.
    matched = [d for _, d in pairs if d is not None]
    assert len(matched) == len(set(matched))
    # Every match respects the tolerance.
    for s_index, d_index in pairs:
        if d_index is not None:
            delta = abs(int(demod_starts[d_index]) - windows[s_index].start)
            assert delta <= tolerance

    # Monotone in tolerance: widening the acceptance radius only adds
    # candidate pairs *after* the sorted prefix, so the greedy assignment
    # never un-matches a window that a tighter tolerance matched.
    wider = align_windows(windows, demod_starts, tolerance + extra_tolerance)
    for (s_index, d_index), (s2, d2) in zip(pairs, wider):
        assert s_index == s2
        if d_index is not None:
            assert d2 is not None


# -- PR4: severity-0 fault plans are no-ops ---------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    plan_seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_samples=st.integers(min_value=64, max_value=4096),
)
def test_zero_severity_faults_are_object_identical_noops(
    seed, plan_seed, n_samples
):
    """An intensity-0 plan returns the *same array objects*, untouched.

    The carrier injectors promise not just equal values but the identity
    no-op (no copy, no RNG consumption visible to the caller) for any
    plan seed and capture length.
    """
    from repro.faults.carrier import (
        AdcClipper,
        AmbientDropout,
        CarrierFaultSet,
        ImpulsiveNoise,
        NarrowbandJammer,
    )
    from repro.faults.plan import FaultPlan

    plan = FaultPlan(
        injectors=tuple(
            cls(0.0)
            for cls in (AmbientDropout, NarrowbandJammer, ImpulsiveNoise, AdcClipper)
        ),
        seed=plan_seed,
    )
    rng = make_rng(seed)
    samples = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    fault_set = CarrierFaultSet(plan)
    assert fault_set.apply_ambient(samples) is samples
    assert fault_set.apply_backscatter(samples) is samples


@st.composite
def valid_system_configs(draw):
    """A random valid config: every substrate with the modes it supports."""
    substrate = draw(st.sampled_from(available_substrates()))
    mode = get_substrate(substrate)
    reference_modes = ("genie",)
    if mode.supports_decoded_reference:
        reference_modes += ("decoded",)
    sync_modes = ("model",)
    if mode.supports_circuit_sync:
        sync_modes += ("circuit",)
    return SystemConfig(
        bandwidth_mhz=draw(st.sampled_from((1.4, 3.0))),
        n_frames=draw(st.integers(min_value=1, max_value=2)),
        substrate=substrate,
        reference_mode=draw(st.sampled_from(reference_modes)),
        sync_mode=draw(st.sampled_from(sync_modes)),
        enb_to_tag_ft=draw(st.floats(min_value=0.0, max_value=500.0)),
        tag_to_ue_ft=draw(st.floats(min_value=0.0, max_value=500.0)),
        tx_power_dbm=draw(st.floats(min_value=-60.0, max_value=30.0)),
        add_noise=draw(st.booleans()),
        multipath=draw(st.booleans()),
        erasure_threshold=draw(st.one_of(st.none(), st.floats(0.0, 1.0))),
        window_snr_gate_db=draw(st.one_of(st.none(), st.floats(-10.0, 30.0))),
        sync_resync_attempts=draw(st.integers(min_value=0, max_value=2)),
    )


@settings(max_examples=25, deadline=None)
@given(config=valid_system_configs(), seed=st.integers(0, 2**31 - 1))
def test_valid_config_reports_no_undocumented_nan(config, seed):
    """Every LinkReport field is finite but for the documented NaNs: BER
    with no bits, the sync error after a sync failure, and the LTE fields
    when nothing was decoded (genie reference)."""
    report = LScatterSystem(config, rng=seed).run(payload_length=2000)
    allowed = set()
    if report.n_bits == 0:
        allowed.add("ber")
    if report.sync_failed:
        allowed.add("sync_error_us")
    if config.reference_mode == "genie":
        allowed |= {"lte_block_error_rate", "lte_throughput_bps"}
    fields = {
        name: getattr(report, name)
        for name in (
            "n_bits", "n_errors", "duration_seconds", "n_windows",
            "n_lost_windows", "n_erased_windows", "sync_error_us",
            "lte_block_error_rate", "lte_throughput_bps", "ber",
            "throughput_bps",
        )
    }
    not_finite = sorted(
        name for name, value in fields.items() if not np.isfinite(value)
    )
    assert set(not_finite) <= allowed, (not_finite, config)
