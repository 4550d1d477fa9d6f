"""Per-mode behaviour: links carry bits, fault no-ops hold, guards fire."""

import numpy as np
import pytest

from repro.core import LScatterSystem, SystemConfig
from repro.faults.carrier import AmbientDropout
from repro.faults.plan import FaultPlan
from repro.fleet import Deployment, FleetRunner
from repro.fleet.ambient import AmbientCache
from repro.substrates import available_substrates

MODES = available_substrates()


def _config(mode, **overrides):
    kwargs = dict(
        bandwidth_mhz=1.4,
        n_frames=2,
        reference_mode="genie",
        sync_mode="model",
        multipath=False,
        substrate=mode,
    )
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def _fields(report):
    return (
        report.n_bits,
        report.n_errors,
        report.n_windows,
        report.n_lost_windows,
        report.n_erased_windows,
        report.sync_error_us,
        report.throughput_bps,
    )


@pytest.mark.parametrize("mode", MODES)
def test_close_range_link_carries_bits(mode):
    report = LScatterSystem(_config(mode), rng=0).run(payload_length=4000)
    assert report.n_bits > 0
    assert report.ber <= 0.05


@pytest.mark.parametrize("mode", MODES)
def test_severity_zero_fault_plan_is_a_noop(mode):
    clean = LScatterSystem(_config(mode, faults=None), rng=0).run(
        payload_length=4000
    )
    noop = LScatterSystem(
        _config(mode, faults=FaultPlan.none(seed=0)), rng=0
    ).run(payload_length=4000)
    assert _fields(noop) == _fields(clean)


@pytest.mark.parametrize("mode", MODES)
def test_carrier_dropout_does_not_improve_the_link(mode):
    clean = LScatterSystem(_config(mode), rng=0).run(payload_length=4000)
    faulted = LScatterSystem(
        _config(
            mode,
            faults=FaultPlan(injectors=(AmbientDropout(0.4),), seed=5),
        ),
        rng=0,
    ).run(payload_length=4000)
    assert faulted.throughput_bps <= clean.throughput_bps * (1 + 1e-9)
    assert faulted.ber >= clean.ber * (1 - 1e-9)


def test_srs_uplink_rejects_decoded_reference():
    config = _config("srs-uplink", reference_mode="decoded")
    with pytest.raises(ValueError, match="decodable"):
        LScatterSystem(config, rng=0)


def test_srs_uplink_rejects_circuit_sync():
    config = _config("srs-uplink", sync_mode="circuit")
    with pytest.raises(ValueError, match="circuit"):
        LScatterSystem(config, rng=0)


def test_fleet_runner_rejects_batch_tags_off_chip():
    deployment = Deployment.ring(
        2, bandwidth_mhz=1.4, n_frames=2, substrate="crs-fsk"
    )
    with pytest.raises(ValueError, match="batch_tags"):
        FleetRunner(deployment, batch_tags=True)


def test_fleet_runs_every_mode_and_tags_decode(tmp_path):
    for mode in MODES:
        deployment = Deployment.ring(
            2, bandwidth_mhz=1.4, n_frames=2, substrate=mode
        )
        with FleetRunner(deployment, scheme="tdma", seed=0) as runner:
            report = runner.run(payload_length=2000)
        assert report.failed_tags == 0
        assert all(tag.n_bits > 0 for tag in report.tags), mode


def test_ambient_cache_keys_uplink_separately():
    cache = AmbientCache()
    downlink = cache.key_for(_config("chip"), 0)
    crs = cache.key_for(_config("crs-ook"), 0)
    srs = cache.key_for(_config("srs-uplink"), 0)
    # Downlink substrates share one capture slot; uplink never collides.
    assert downlink == crs
    assert srs != downlink
    assert srs.ambient_kind == "srs-uplink"
    with cache:
        cache.get(_config("chip"), 0)
        cache.get(_config("crs-ook"), 0)
        assert cache.transmit_calls == 1
        srs_stage = cache.get(_config("srs-uplink"), 0)
        assert cache.transmit_calls == 2
        # The uplink capture really is SRS: mostly silent air.
        occupied = np.mean(np.abs(srs_stage.unit) > 1e-9)
        assert occupied < 0.2
