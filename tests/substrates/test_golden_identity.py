"""Default-mode bit-identity: the substrate refactor must cost zero bits.

These goldens were recorded on the pre-substrate pipeline; any drift in
the default (chip) path — an extra RNG draw, a reordered stage, a
changed window layout — shows up here as a hard failure.  The explicit
``substrate="chip"`` spelling must match the implicit default exactly,
and a :class:`~repro.fleet.runner.FleetRunner` with no substrate
argument must reproduce the recorded per-tag numbers.
"""

import hashlib

import numpy as np
import pytest

from repro.core import LScatterSystem, SystemConfig
from repro.fleet import Deployment, FleetRunner

#: (n_bits, n_errors, n_windows, n_lost, n_erased, sync_error_us).
GOLDEN_DECODED_SEED7 = (16704, 3, 232, 0, 0, 0.0)
GOLDEN_GENIE_SEED3 = (12528, 5, 174, 0, 0, 1.5625)
#: Per-tag rows of the golden fleet run (name, bits, errors, windows,
#: lost, erased, sync_error_us).
GOLDEN_FLEET = (
    ("tag00", 4176, 2, 58, 0, 0, 2.6041666666666665),
    ("tag01", 4176, 0, 58, 0, 0, 1.0416666666666667),
    ("tag02", 4176, 0, 58, 0, 0, -1.0416666666666667),
)

#: The deployable receiver through the default multipath channels and
#: thermal noise (decoded reference, circuit sync, seed 11, 4000 payload
#: bits, 2 frames): fields, LTE block error rate and the sha256 of the
#: decoded transport blocks.  The goldens above use flat channels, so
#: only these pin the multi-tap channel FIR on the decoded path.
GOLDEN_MULTIPATH_DECODED = {
    1.4: (
        (16704, 4, 232, 0, 0, -4.6875),
        0.0,
        "e683984d55c0b1737d73fb56e1c4f0f51ebb2ba55d1800148851447eade8e3fa",
    ),
    3.0: (
        (41760, 2, 232, 0, 0, -2.6041666666666665),
        0.0,
        "d755c20f569eaeb53eec693d004a8cae98e4147761ef44c2dc5ab7d9dfa0752a",
    ),
}


def _fields(report):
    return (
        report.n_bits,
        report.n_errors,
        report.n_windows,
        report.n_lost_windows,
        report.n_erased_windows,
        report.sync_error_us,
    )


def _decoded_config(**overrides):
    kwargs = dict(
        bandwidth_mhz=1.4,
        n_frames=2,
        reference_mode="decoded",
        multipath=False,
        add_noise=False,
        sync_error_samples=0,
    )
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def _genie_config(**overrides):
    kwargs = dict(
        bandwidth_mhz=1.4,
        n_frames=2,
        reference_mode="genie",
        sync_mode="model",
        multipath=False,
    )
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def test_decoded_reference_golden_unchanged():
    report = LScatterSystem(_decoded_config(), rng=7).run(payload_length=2000)
    assert _fields(report) == GOLDEN_DECODED_SEED7


def test_genie_reference_golden_unchanged():
    report = LScatterSystem(_genie_config(), rng=3).run(payload_length=2000)
    assert _fields(report) == GOLDEN_GENIE_SEED3


@pytest.mark.parametrize("bandwidth", sorted(GOLDEN_MULTIPATH_DECODED))
def test_decoded_multipath_golden_unchanged(bandwidth):
    fields, block_error_rate, digest = GOLDEN_MULTIPATH_DECODED[bandwidth]
    config = SystemConfig(
        bandwidth_mhz=bandwidth,
        n_frames=2,
        reference_mode="decoded",
        sync_mode="circuit",
    )
    report = LScatterSystem(config, rng=11).run(payload_length=4000)
    assert _fields(report) == fields
    assert report.lte_block_error_rate == block_error_rate
    front = LScatterSystem(config, rng=11).run_frontend(payload_length=4000)
    decoded = np.concatenate([sf.decoded for sf in front.lte_result.subframes])
    assert hashlib.sha256(decoded.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("make_config", [_decoded_config, _genie_config])
def test_explicit_chip_is_bit_identical_to_default(make_config):
    seed = 7 if make_config is _decoded_config else 3
    default = LScatterSystem(make_config(), rng=seed).run(payload_length=2000)
    explicit = LScatterSystem(make_config(substrate="chip"), rng=seed).run(
        payload_length=2000
    )
    assert _fields(explicit) == _fields(default)
    assert explicit.throughput_bps == default.throughput_bps


def test_fleet_golden_unchanged_without_substrate_argument():
    deployment = Deployment.ring(3, bandwidth_mhz=1.4, n_frames=2)
    with FleetRunner(deployment, scheme="tdma", seed=0) as runner:
        report = runner.run(payload_length=2000)
    rows = tuple(
        (
            tag.name,
            tag.n_bits,
            tag.n_errors,
            tag.n_windows,
            tag.n_lost_windows,
            tag.n_erased_windows,
            tag.sync_error_us,
        )
        for tag in report.tags
    )
    assert rows == GOLDEN_FLEET


def test_fleet_explicit_chip_matches_default():
    deployment = Deployment.ring(
        3, bandwidth_mhz=1.4, n_frames=2, substrate="chip"
    )
    with FleetRunner(deployment, scheme="tdma", seed=0) as runner:
        explicit = runner.run(payload_length=2000)
    rows = tuple(
        (tag.name, tag.n_bits, tag.n_errors, tag.sync_error_us)
        for tag in explicit.tags
    )
    assert rows == tuple(
        (name, bits, errors, sync)
        for name, bits, errors, _w, _l, _e, sync in GOLDEN_FLEET
    )
