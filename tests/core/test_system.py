"""End-to-end IQ system tests."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.channel.link import DirectLink
from repro.core import AmbientStage, LScatterSystem, SystemConfig
from repro.lte import coding
from repro.obs import metrics as obs_metrics

#: sha256 of ``artifacts.direct_rx`` for a 1.4 MHz genie run with
#: multipath and noise (``n_frames=2``, ``rng=11``, 2000 payload bits),
#: recorded while every run still built its direct band eagerly.
DIRECT_RX_SHA256 = "3e03671d23c4c16a150544fe50ca444d341a982bf6fdb05529a6c483e806d435"


def _run(seed=1, **kwargs):
    defaults = dict(
        bandwidth_mhz=1.4,
        n_frames=2,
        enb_to_tag_ft=3.0,
        tag_to_ue_ft=3.0,
        reference_mode="genie",
    )
    defaults.update(kwargs)
    config = SystemConfig(**defaults)
    return LScatterSystem(config, rng=seed).run(payload_length=50_000)


def test_close_range_low_ber():
    report = _run()
    assert report.ber < 2e-3
    assert report.n_lost_windows == 0


def test_throughput_matches_rate_model():
    from repro.core.link_budget import LScatterLinkModel

    report = _run()
    model_rate = LScatterLinkModel(1.4).raw_bit_rate_bps
    assert report.throughput_bps == pytest.approx(model_rate, rel=0.02)


def test_decoded_reference_matches_genie():
    genie = _run(seed=3, reference_mode="genie")
    decoded = _run(seed=3, reference_mode="decoded")
    # With clean LTE decode, the reconstruction is exact and results match.
    assert decoded.ber == pytest.approx(genie.ber, abs=5e-4)
    assert decoded.lte_block_error_rate == 0.0


def test_sync_error_within_guard_is_harmless():
    aligned = _run(seed=4, sync_error_samples=0)
    shifted = _run(seed=4, sync_error_samples=15)
    assert shifted.ber < aligned.ber + 1e-3


def test_distance_degrades_link():
    near = _run(seed=5, venue="shopping_mall", enb_to_tag_ft=5, tag_to_ue_ft=5)
    far = _run(seed=5, venue="shopping_mall", enb_to_tag_ft=5, tag_to_ue_ft=120)
    assert far.ber > near.ber


def test_explicit_payload_bits_used():
    config = SystemConfig(
        bandwidth_mhz=1.4, n_frames=1, reference_mode="genie"
    )
    system = LScatterSystem(config, rng=6)
    payload = np.ones(500, dtype=np.int8)
    report = system.run(payload_bits=payload, artifacts=True)
    schedule = report.extras["artifacts"].schedule
    assert np.array_equal(schedule.payload_bits, payload)


def test_lte_unaffected_by_tag():
    report = _run(seed=7, reference_mode="decoded")
    assert report.lte_block_error_rate == 0.0


def test_circuit_sync_mode_works():
    report = _run(seed=8, n_frames=6, sync_mode="circuit")
    assert abs(report.sync_error_us) < 10.0
    assert report.ber < 5e-3


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        SystemConfig(sync_mode="psychic")
    with pytest.raises(ValueError):
        SystemConfig(reference_mode="oracle")
    for n_frames in (0, -1, 1.5, float("nan"), "2", None):
        with pytest.raises(ValueError, match="n_frames"):
            SystemConfig(n_frames=n_frames)
    nan, inf = float("nan"), float("inf")
    for field, values in {
        "bandwidth_mhz": (7, 7.0, 0.0, nan, "20", None),
        "venue": ("nowhere", "mall", None),
        "enb_to_tag_ft": (nan, inf, -1.0, "3"),
        "tag_to_ue_ft": (nan, -inf, -5.0),
        "tx_power_dbm": (nan, inf, -inf, None),
        "window_snr_gate_db": (nan, inf),
        "structural_reflection_db": (nan, inf, -inf),
    }.items():
        for value in values:
            with pytest.raises(ValueError, match=field):
                SystemConfig(**{field: value})
    # Zero distances stay legal (path loss clamps at 0.1 m).
    SystemConfig(enb_to_tag_ft=0.0, tag_to_ue_ft=0.0)
    # Every supported bandwidth constructs, given as int or float.
    for bandwidth_mhz in (1.4, 3, 5.0, 10, 15.0, 20):
        SystemConfig(bandwidth_mhz=bandwidth_mhz)


@pytest.mark.parametrize(
    "poisoned, array",
    [("unit", "shifted_rx"), ("capture", "reference"), ("unit", "direct_rx")],
)
def test_non_finite_ambient_fails_at_the_demod_boundary(poisoned, array):
    """One NaN in an injected ambient raises, naming the array and stage,
    instead of demodulating into a normal-looking report.  A decoded
    reference reads the direct band first, so that run stops entering
    the LTE decode."""
    decoded = array == "direct_rx"
    config = SystemConfig(
        bandwidth_mhz=1.4,
        reference_mode="decoded" if decoded else "genie",
        sync_mode="model",
    )
    clean = LScatterSystem(config, rng=0).prepare_ambient(rng=7)
    capture, unit = clean.capture, clean.unit
    samples = (unit if poisoned == "unit" else capture.samples).copy()
    samples[1000] = np.nan
    if poisoned == "unit":
        unit = samples
    else:
        capture = replace(capture, samples=samples)
    stage = AmbientStage(capture=capture, unit=unit)
    system = LScatterSystem(config, rng=1)
    entering = "lte.decode" if decoded else "bsrx.demodulate"
    with pytest.raises(ValueError, match=f"^{array} .*entering {entering}$"):
        system.run(payload_length=4000, ambient=stage)


def _fast_viterbi_blocks():
    return obs_metrics.counters_snapshot().get("lte.viterbi_fast_blocks", 0)


def test_clean_decoded_session_skips_the_trellis_for_every_block():
    """Every transport block of a clean decoded session already is a
    codeword, so each one takes the Viterbi's algebraic fast path."""
    config = SystemConfig(bandwidth_mhz=1.4, n_frames=1, reference_mode="decoded")
    before = _fast_viterbi_blocks()
    front = LScatterSystem(config, rng=2).run_frontend(payload_length=2000)
    n_blocks = len(front.lte_result.subframes)
    assert n_blocks == 10
    assert front.lte_result.block_error_rate == 0.0
    assert _fast_viterbi_blocks() - before == n_blocks


def test_erased_coded_pilot_windows_take_the_trellis():
    """A coded-pilot session's erased windows decode as zero LLRs, which
    only the sweep may decode.  A pinned 40-sample sync error loses the
    preamble of some half-frames, whose data windows are then erased."""
    config = SystemConfig(
        bandwidth_mhz=1.4,
        n_frames=2,
        reference_mode="genie",
        sync_mode="model",
        sync_error_samples=40,
        multipath=False,
        substrate="coded-pilot",
    )
    before = _fast_viterbi_blocks()
    report = LScatterSystem(config, rng=0).run(payload_length=4000)
    assert report.n_erased_windows > 0
    assert report.n_bits > 0
    assert _fast_viterbi_blocks() == before


def test_coded_pilot_decodes_through_the_package_viterbi(monkeypatch):
    """A coded-pilot block goes through ``repro.lte.coding.viterbi_decode_many``,
    the name ``LteReceiver.decode`` calls and perfbench's ledger wraps, so
    a wrapper there sees it (a genie session decodes no LTE block)."""
    calls = []
    decode_many = coding.viterbi_decode_many

    def spy(llrs_list, n_bits_list):
        calls.append(len(llrs_list))
        return decode_many(llrs_list, n_bits_list)

    monkeypatch.setattr(coding, "viterbi_decode_many", spy)
    config = SystemConfig(
        bandwidth_mhz=1.4,
        n_frames=1,
        reference_mode="genie",
        sync_mode="model",
        multipath=False,
        substrate="coded-pilot",
    )
    report = LScatterSystem(config, rng=0).run(payload_length=2000)
    assert report.n_bits > 0
    assert calls == [1]


@pytest.mark.parametrize("value", [2.5, -0.5, float("nan"), float("inf"), "3"])
def test_sync_error_pin_must_be_whole(value):
    with pytest.raises(ValueError, match="sync_error_samples must be a whole number"):
        SystemConfig(sync_error_samples=value)


@pytest.mark.parametrize("value", [2.5, -1, float("nan"), "1"])
def test_resync_budget_must_be_whole(value):
    with pytest.raises(
        ValueError, match="sync_resync_attempts must be a whole number >= 0"
    ):
        SystemConfig(sync_resync_attempts=value)


def test_whole_sync_error_pins_accepted():
    for value in (None, 0, -4, 3.0, np.int64(7)):
        SystemConfig(sync_error_samples=value)


@pytest.mark.parametrize("payload_length", [-5, 2.5, float("nan"), None])
def test_bad_payload_length_rejected(payload_length):
    config = SystemConfig(bandwidth_mhz=1.4, n_frames=1, reference_mode="genie")
    system = LScatterSystem(config, rng=0)
    with pytest.raises(ValueError, match="payload_length"):
        system.run(payload_length=payload_length)
    with pytest.raises(ValueError, match="payload_length"):
        system.run_frontend(payload_length=payload_length)


def test_artifacts_present_when_requested():
    config = SystemConfig(bandwidth_mhz=1.4, n_frames=1, reference_mode="genie")
    report = LScatterSystem(config, rng=9).run(payload_length=100, artifacts=True)
    artifacts = report.extras["artifacts"]
    assert artifacts.capture is not None
    assert artifacts.demod.n_data_windows > 0


def _count_direct_link_calls(monkeypatch):
    calls = []
    apply = DirectLink.apply

    def counted(self, samples):
        calls.append(len(samples))
        return apply(self, samples)

    monkeypatch.setattr(DirectLink, "apply", counted)
    return calls


def _artifacts(**kwargs):
    config = SystemConfig(bandwidth_mhz=1.4, n_frames=2, **kwargs)
    report = LScatterSystem(config, rng=11).run(payload_length=2000, artifacts=True)
    return report.extras["artifacts"]


def test_genie_run_builds_direct_band_only_when_read(monkeypatch):
    calls = _count_direct_link_calls(monkeypatch)
    artifacts = _artifacts(reference_mode="genie")
    assert calls == []
    first = artifacts.direct_rx
    assert artifacts.direct_rx is first
    assert calls == [len(first)]


@pytest.mark.parametrize(
    "overrides",
    [dict(reference_mode="decoded")],
)
def test_runs_reading_the_direct_band_build_it_once(monkeypatch, overrides):
    calls = _count_direct_link_calls(monkeypatch)
    artifacts = _artifacts(**overrides)
    assert len(calls) == 1
    assert artifacts.direct_rx is artifacts.direct_rx
    assert len(calls) == 1


def test_deferred_direct_band_equals_eager_build():
    direct = _artifacts(reference_mode="genie").direct_rx
    assert hashlib.sha256(direct.tobytes()).hexdigest() == DIRECT_RX_SHA256
