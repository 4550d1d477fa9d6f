"""End-to-end IQ system tests."""

import numpy as np
import pytest

from repro.core import LScatterSystem, SystemConfig


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
        "enb_to_tag_ft": (nan, inf, -1.0, "3"),
        "tag_to_ue_ft": (nan, -inf, -5.0),
        "enb_to_ue_ft": (nan, inf, -0.5),
        "tx_power_dbm": (nan, inf, -inf, None),
        "window_snr_gate_db": (nan, inf),
    }.items():
        for value in values:
            with pytest.raises(ValueError, match=field):
                SystemConfig(**{field: value})
    # Zero distances stay legal (path loss clamps at 0.1 m).
    SystemConfig(enb_to_tag_ft=0.0, tag_to_ue_ft=0.0, enb_to_ue_ft=0.0)


def test_artifacts_present_when_requested():
    config = SystemConfig(bandwidth_mhz=1.4, n_frames=1, reference_mode="genie")
    report = LScatterSystem(config, rng=9).run(payload_length=100, artifacts=True)
    artifacts = report.extras["artifacts"]
    assert artifacts.capture is not None
    assert artifacts.demod.n_data_windows > 0
