"""Heavy integration tests across the full stack."""

import numpy as np
import pytest

from repro.core import LScatterLinkModel, LScatterSystem, SystemConfig
from repro.channel.link import LinkBudget


def test_20mhz_headline_throughput():
    """The paper's flagship configuration, IQ end to end."""
    config = SystemConfig(
        bandwidth_mhz=20.0,
        n_frames=1,
        enb_to_tag_ft=3.0,
        tag_to_ue_ft=3.0,
        reference_mode="decoded",
    )
    report = LScatterSystem(config, rng=11).run(payload_length=500_000)
    assert report.ber < 1e-3
    assert report.throughput_bps == pytest.approx(13.92e6, rel=0.02)
    assert report.lte_block_error_rate == 0.0


def test_20mhz_circuit_sync_end_to_end():
    """Analog sync circuit driving the flagship configuration."""
    config = SystemConfig(
        bandwidth_mhz=20.0,
        n_frames=3,
        enb_to_tag_ft=3.0,
        tag_to_ue_ft=3.0,
        sync_mode="circuit",
        reference_mode="genie",
    )
    report = LScatterSystem(config, rng=12).run(payload_length=500_000)
    assert abs(report.sync_error_us) < 14.0  # inside the 27.6 us guard
    assert report.ber < 2e-3


def test_link_model_tracks_iq_simulation():
    """The closed-form model must agree with the sample-level truth."""
    budget = LinkBudget(venue="shopping_mall")
    model = LScatterLinkModel(1.4, budget)
    for d2, seeds in ((20, (1, 2, 3)), (100, (4, 5, 6))):
        iq_bers = []
        for seed in seeds:
            config = SystemConfig(
                bandwidth_mhz=1.4,
                venue="shopping_mall",
                n_frames=2,
                enb_to_tag_ft=5.0,
                tag_to_ue_ft=float(d2),
                reference_mode="genie",
            )
            report = LScatterSystem(config, rng=seed).run(payload_length=100_000)
            iq_bers.append(report.ber)
        iq = float(np.mean(iq_bers))
        predicted = model.ber(5.0, d2)
        # Same order of magnitude (fading realisations spread the IQ BER).
        assert predicted / 5 < max(iq, 1e-5) < predicted * 8, (d2, iq, predicted)


def test_coded_payload_through_iq_chain():
    """Hamming-coded payload over the IQ link decodes bit-exact."""
    from repro.tag.coding import (
        block_deinterleave,
        block_interleave,
        hamming74_decode,
        hamming74_encode,
    )
    from repro.core.metrics import align_windows

    payload = np.random.default_rng(0).integers(0, 2, size=4000).astype(np.int8)
    coded, n = hamming74_encode(payload)
    interleaved, m = block_interleave(coded, depth=12)

    config = SystemConfig(
        bandwidth_mhz=1.4,
        venue="shopping_mall",
        n_frames=2,
        enb_to_tag_ft=5.0,
        tag_to_ue_ft=60.0,
        reference_mode="genie",
    )
    system = LScatterSystem(config, rng=13)
    report = system.run(payload_bits=interleaved, artifacts=True)
    artifacts = report.extras["artifacts"]

    # Reassemble the received chip stream in schedule order.
    pairs = align_windows(
        artifacts.schedule.windows, artifacts.demod.starts, 64
    )
    received = []
    for s_index, d_index in pairs:
        if d_index is None:
            received.append(artifacts.schedule.windows[s_index].bits * 0)
        else:
            received.append(artifacts.demod.window_bits[d_index])
    stream = np.concatenate(received)[: len(interleaved)]

    deinterleaved = block_deinterleave(stream, 12, m)
    decoded = hamming74_decode(deinterleaved[: len(coded)], n)
    errors = int(np.sum(decoded != payload))
    # The raw stream has ~1e-3 BER here; the code must clean it up.
    assert errors <= 2


def test_all_bandwidths_round_numbers():
    """Throughput scales exactly with the subcarrier count at IQ level."""
    rates = {}
    for bw in (1.4, 5.0):
        config = SystemConfig(
            bandwidth_mhz=bw, n_frames=1, reference_mode="genie"
        )
        report = LScatterSystem(config, rng=15).run(payload_length=500_000)
        rates[bw] = report.throughput_bps
    assert rates[5.0] / rates[1.4] == pytest.approx(300 / 72, rel=0.01)
