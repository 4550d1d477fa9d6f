"""Determinism guarantees: same seed, same science."""

import numpy as np

from repro.core import LScatterSystem, SystemConfig
from repro.experiments import run_experiment


def _run(seed):
    config = SystemConfig(bandwidth_mhz=1.4, n_frames=1, reference_mode="genie")
    return LScatterSystem(config, rng=seed).run(payload_length=10_000)


def test_system_fully_deterministic():
    a = _run(123)
    b = _run(123)
    assert a.n_bits == b.n_bits
    assert a.n_errors == b.n_errors
    assert a.sync_error_us == b.sync_error_us


def test_different_seeds_differ():
    a = _run(1)
    b = _run(2)
    # Same schedule capacity, different realisations.
    assert a.n_bits == b.n_bits
    assert a.sync_error_us != b.sync_error_us or a.n_errors != b.n_errors


def test_experiments_deterministic():
    for experiment_id in ("fig04", "fig19", "fig23", "fig33"):
        a = run_experiment(experiment_id, seed=5)
        b = run_experiment(experiment_id, seed=5)
        assert a.rows == b.rows, experiment_id


def test_capture_bitstreams_deterministic():
    from repro.lte import LteTransmitter

    a = LteTransmitter(1.4, rng=9).transmit(1).samples
    b = LteTransmitter(1.4, rng=9).transmit(1).samples
    assert np.array_equal(a, b)


def test_wifi_and_lora_deterministic():
    from repro.wifi import WifiTransmitter

    a = WifiTransmitter(12.0, rng=4).transmit(psdu_bytes=50).samples
    b = WifiTransmitter(12.0, rng=4).transmit(psdu_bytes=50).samples
    assert np.array_equal(a, b)
