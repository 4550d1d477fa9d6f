"""Fleet- and network-level execution paths: bit-identity switches.

``FleetRunner(batch_tags=)`` and the worker count are pure
execution-strategy knobs: the batched cross-tag demod pass and any
number of engine workers must not change a single result bit relative
to the serial per-tag path.  These tests pin that contract at the
:class:`FleetRunner` and :class:`NetworkRunner` level, on top of the
demodulator-level equality tests in ``tests/bsrx/test_batch_demod.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cells import NetworkDeployment, NetworkRunner, Topology
from repro.core import AmbientStage
from repro.fleet import Deployment, FleetRunner


def _deployment(n_tags=3, n_frames=2):
    return Deployment.ring(n_tags, bandwidth_mhz=1.4, n_frames=n_frames)


def _tag_key(result):
    return (
        result.name,
        result.n_bits,
        result.n_errors,
        result.n_windows,
        result.n_lost_windows,
        result.n_erased_windows,
        result.sync_error_us,
    )


def _fleet_keys(**kwargs):
    with FleetRunner(_deployment(), scheme="tdma", seed=5, **kwargs) as runner:
        report = runner.run(payload_length=3000)
    return [_tag_key(t) for t in report.tags], report


def test_batched_fleet_matches_engine_paths():
    serial, _ = _fleet_keys(workers=1)
    parallel, _ = _fleet_keys(workers=2)
    batched, report = _fleet_keys(workers=1, batch_tags=True)
    assert serial == parallel == batched
    # The batched pass runs in the parent; the report must say so rather
    # than advertising engine workers that never ran.
    batched2, report2 = _fleet_keys(workers=4, batch_tags=True)
    assert batched2 == batched
    assert report2.workers == 1


def test_batched_pass_rejects_a_non_finite_ambient(monkeypatch):
    """The batched pass demodulates through the same front end as ``run``,
    so a NaN in the shared ambient fails before the cross-tag demod."""
    runner = FleetRunner(_deployment(), scheme="tdma", seed=5, batch_tags=True)
    with runner:
        stage = runner.cache.get(runner.deployment.base_config(), runner.seed)
        samples = stage.unit.copy()
        samples[1000] = np.nan
        poisoned = AmbientStage(
            capture=replace(stage.capture, samples=samples), unit=samples
        )
        monkeypatch.setattr(runner.cache, "get", lambda config, seed: poisoned)
        with pytest.raises(ValueError, match="^shifted_rx .*bsrx.demodulate"):
            runner.run(payload_length=3000)


def test_batch_tags_rejects_incompatible_modes():
    with pytest.raises(ValueError):
        FleetRunner(_deployment(), batch_tags=True, trace=True)
    from repro.faults.plan import InfraFaults

    with pytest.raises(ValueError):
        FleetRunner(
            _deployment(), batch_tags=True, infra_faults=InfraFaults()
        )


def _network_keys(**kwargs):
    topology = Topology.grid(1, 2, spacing_ft=300.0, n_frames=1)
    deployment = NetworkDeployment.scatter(4, topology, seed=2)
    with NetworkRunner(topology, deployment, seed=9, **kwargs) as runner:
        report = runner.run()
    keys = []
    for cell_id in sorted(report.cells):
        keys.extend(
            (cell_id,) + _tag_key(t) for t in report.cells[cell_id].tags
        )
    return keys


def test_network_workers_match_serial():
    assert _network_keys(workers=1) == _network_keys(workers=2)
