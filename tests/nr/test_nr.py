"""5G NR-lite substrate tests."""

import numpy as np
import pytest

from repro.nr import (
    NR_PRESETS,
    NrFrameBuilder,
    NrNumerology,
    nr_backscatter_trial,
    nr_pss,
    nr_sss,
)


def _detect_pss(observed):
    """N_ID^(2) whose PSS correlates best with an observed PSS."""
    metrics = [np.real(np.vdot(nr_pss(n_id_2), observed)) for n_id_2 in (0, 1, 2)]
    return int(np.argmax(metrics))


def test_numerology_scaling():
    mu0 = NrNumerology(mu=0, n_rb=52, fft_size=1024)
    mu1 = NrNumerology(mu=1, n_rb=52, fft_size=1024)
    assert mu1.scs_hz == 2 * mu0.scs_hz
    assert mu1.sample_rate_hz == 2 * mu0.sample_rate_hz
    assert mu1.slots_per_frame == 2 * mu0.slots_per_frame
    assert mu1.samples_per_frame == mu0.samples_per_frame * 2


def test_frame_duration_is_10ms():
    # Within ~0.2%: the NR-lite numerology uses a uniform CP, ignoring
    # the slot-edge CP extension (documented simplification).
    for preset in NR_PRESETS.values():
        assert preset.samples_per_frame / preset.sample_rate_hz == pytest.approx(
            10e-3, rel=2e-3
        )


def test_invalid_numerology_rejected():
    with pytest.raises(ValueError):
        NrNumerology(mu=5, n_rb=10, fft_size=256)
    with pytest.raises(ValueError):
        NrNumerology(mu=0, n_rb=100, fft_size=256)


def test_pss_values_and_detection():
    for nid2 in (0, 1, 2):
        seq = nr_pss(nid2)
        assert len(seq) == 127
        assert set(np.unique(seq)) <= {-1.0, 1.0}
        assert _detect_pss(seq.astype(complex)) == nid2


def test_pss_cross_correlation_low():
    a, b = nr_pss(0), nr_pss(1)
    assert abs(np.dot(a, b)) / 127 < 0.3


def test_frame_builder_shapes():
    capture = NrFrameBuilder(NR_PRESETS["nr10_mu0"], n_id_1=7, n_id_2=1, rng=0).build()
    num = capture.numerology
    assert len(capture.samples) == num.samples_per_frame
    assert capture.grid.shape == (num.slots_per_frame * 14, num.n_subcarriers)
    assert capture.cell_id == 22


def test_frame_pss_recoverable_from_samples():
    capture = NrFrameBuilder(NR_PRESETS["nr10_mu0"], n_id_2=2, rng=1).build()
    num = capture.numerology
    start = capture.useful_start(0, 2)  # PSS symbol
    useful = capture.samples[start : start + num.fft_size]
    bins = np.fft.fft(useful) / np.sqrt(num.fft_size)
    observed = bins[num.subcarrier_indices()]
    half = num.n_subcarriers // 2
    sync_cols = np.arange(half - 63, half - 63 + 127)
    assert _detect_pss(observed[sync_cols]) == 2


def test_backscatter_clean_on_both_presets():
    for preset in ("nr10_mu0", "nr20_mu1"):
        result = nr_backscatter_trial(preset, snr_db=35, seed=0)
        assert result.ber < 2e-3, preset
        assert result.n_bits > 0


def test_nr_mu1_outruns_lte():
    """The §6 claim quantified: 30 kHz SCS doubles the symbol rate, so
    chip backscatter on 20 MHz NR beats 20 MHz LTE."""
    from repro.core.link_budget import LScatterLinkModel

    result = nr_backscatter_trial("nr20_mu1", snr_db=35, seed=1)
    assert result.throughput_bps > LScatterLinkModel(20.0).raw_bit_rate_bps
