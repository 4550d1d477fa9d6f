"""FleetService tests: batch equivalence, drain/reload, telemetry.

The service's core promise is that moving tag-sessions from the batch
engine onto a long-lived queue/worker-pool substrate changes *nothing*
about the results: same tags, same bits, same obs counter contributions.
These tests pin that equivalence at worker counts {1, 4}, the
no-loss/no-duplication guarantee across drain and reload, and the
snapshot/telemetry surface.
"""

import json
import time

import pytest

from repro.fleet import Deployment, FleetRunner
from repro.obs import metrics as obs_metrics
from repro.service import (
    BackpressureShed,
    FleetService,
    ServiceError,
    SessionFailure,
)


def _deployment(n_tags=3, n_frames=2):
    return Deployment.ring(n_tags, bandwidth_mhz=1.4, n_frames=n_frames)


def _tag_key(result):
    return (
        result.name,
        result.n_bits,
        result.n_errors,
        result.n_windows,
        result.sync_error_us,
        result.failed,
    )


def _session_delta(before, after):
    """Counter delta excluding the service's own bookkeeping counters."""
    delta = obs_metrics.counter_delta(before, after)
    return {
        name: value
        for name, value in delta.items()
        if not name.startswith(("service.", "fleet."))
    }


# -- batch equivalence -----------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
def test_service_fleet_matches_batch_bit_for_bit(workers):
    """Same deployment+seed through service and batch: identical tags and
    identical non-service obs counter contributions."""
    before_batch = obs_metrics.counters_snapshot()
    batch = FleetRunner(_deployment(3), scheme="tdma", seed=7).run(
        payload_length=2000
    )
    batch_delta = _session_delta(
        before_batch, obs_metrics.counters_snapshot()
    )

    before_service = obs_metrics.counters_snapshot()
    with FleetService(workers=workers, max_queue_depth=16) as service:
        runner = FleetRunner(_deployment(3), scheme="tdma", seed=7)
        ticket = service.submit_fleet(runner, payload_length=2000)
        report = service.fleet_result(ticket)
        service.drain()
    service_delta = _session_delta(
        before_service, obs_metrics.counters_snapshot()
    )

    assert [_tag_key(t) for t in report.tags] == [
        _tag_key(t) for t in batch.tags
    ]
    assert report.scheme == batch.scheme
    assert report.n_half_frames == batch.n_half_frames
    assert report.collision_fraction == batch.collision_fraction
    assert service_delta == batch_delta


def test_service_worker_counts_agree_with_each_other():
    reports = []
    for workers in (1, 4):
        with FleetService(workers=workers, max_queue_depth=16) as service:
            runner = FleetRunner(_deployment(4), scheme="priority", seed=11)
            ticket = service.submit_fleet(runner, payload_length=1500)
            reports.append(service.fleet_result(ticket))
    assert [_tag_key(t) for t in reports[0].tags] == [
        _tag_key(t) for t in reports[1].tags
    ]


# -- drain / reload conservation -------------------------------------------------


def _cheap_session(task):
    """Engine-shaped session: returns ``(elapsed, result)`` like
    ``_simulate_tag`` without the DSP cost."""
    time.sleep(0.002)
    return 0.002, ("echo", task)


def test_drain_completes_every_accepted_session():
    with FleetService(workers=2, max_queue_depth=64) as service:
        tickets = [
            service.submit(_cheap_session, i) for i in range(20)
        ]
        service.drain()
        # After the drain the service refuses new work until reopen().
        with pytest.raises(ServiceError):
            service.submit(_cheap_session, 99)
        # ...but every accepted session has a result, exactly once each.
        values = [service.result(t, timeout=5.0) for t in tickets]
        assert sorted(v[1] for v in values) == list(range(20))
    assert service.queue.counters()["depth"] == 0


def test_reload_keeps_queued_sessions_at_pool_size():
    service = FleetService(workers=2, max_queue_depth=64)
    service.start()
    try:
        tickets = [service.submit(_cheap_session, i) for i in range(12)]
        service.reload()
        assert service.workers == 2
        assert service.reloads == 1
        tickets += [service.submit(_cheap_session, i) for i in range(12, 18)]
        values = [service.result(t, timeout=5.0)[1] for t in tickets]
        # No session lost, none duplicated, across the pool swap.
        assert sorted(values) == list(range(18))
    finally:
        service.shutdown()


def test_drain_reopen_cycle_conserves_sessions():
    service = FleetService(workers=2, max_queue_depth=64)
    service.start()
    try:
        first = [service.submit(_cheap_session, i) for i in range(8)]
        service.drain()
        service.reopen()
        second = [service.submit(_cheap_session, i) for i in range(8, 16)]
        service.drain()
        values = [service.result(t)[1] for t in first + second]
        assert sorted(values) == list(range(16))
        assert service.drains == 2
    finally:
        service.shutdown()


def test_backpressure_shed_surfaces_to_submitter():
    def _stuck(task):
        time.sleep(0.5)
        return 0.5, task

    with FleetService(workers=1, max_queue_depth=2) as service:
        accepted = 0
        shed = 0
        for i in range(12):
            try:
                service.submit(_stuck, i)
                accepted += 1
            except BackpressureShed:
                shed += 1
        assert shed > 0
        assert accepted + shed == 12
        counters = service.queue.counters()
        assert counters["shed"] == shed
        assert counters["submitted"] == accepted


def test_failing_session_returns_failure_not_pool_death():
    def _broken(task):
        raise ValueError(f"bad task {task}")

    with FleetService(workers=2, max_queue_depth=8) as service:
        bad = service.submit(_broken, 1)
        good = service.submit(_cheap_session, 2)
        failure = service.result(bad, timeout=5.0)
        assert isinstance(failure, SessionFailure)
        assert "bad task 1" in failure.error
        # The pool survived the raise and still serves sessions.
        assert service.result(good, timeout=5.0) == ("echo", 2)


# -- lifecycle misuse ------------------------------------------------------------


def test_lifecycle_errors():
    service = FleetService(workers=1)
    with pytest.raises(ServiceError, match="cannot submit"):
        service.submit(_cheap_session, 0)
    service.start()
    with pytest.raises(ServiceError, match="already running"):
        service.start()
    with pytest.raises(ServiceError, match="cannot reopen"):
        service.reopen()
    service.shutdown()
    with pytest.raises(ServiceError, match="stopped"):
        service.start()
    # Shutdown is idempotent.
    service.shutdown()
    with pytest.raises(ValueError, match="workers"):
        FleetService(workers=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"workers": 2.5}, "^workers must be a whole number >= 1"),
        ({"max_queue_depth": 3.7}, "^max_queue_depth must be a whole number >= 1"),
        ({"snapshot_every": 1.9}, "^snapshot_every must be a whole number >= 1"),
    ],
)
def test_service_rejects_bad_counts_naming_the_field(kwargs, message):
    with pytest.raises(ValueError, match=message):
        FleetService(**kwargs)


def test_drain_timeout_raises():
    def _slow(task):
        time.sleep(1.0)
        return 1.0, task

    service = FleetService(workers=1, max_queue_depth=8, poll_seconds=0.01)
    service.start()
    try:
        for i in range(4):
            service.submit(_slow, i)
        with pytest.raises(ServiceError, match="drain timed out"):
            service.drain(timeout=0.05)
    finally:
        service.shutdown()


# -- telemetry / snapshot --------------------------------------------------------


def test_snapshot_file_is_complete_json_with_service_section(tmp_path):
    snapshot = tmp_path / "snap.json"
    with FleetService(
        workers=2, max_queue_depth=32, snapshot_path=str(snapshot),
        snapshot_every=4,
    ) as service:
        for i in range(10):
            service.submit(_cheap_session, i)
        service.drain()
    data = json.loads(snapshot.read_text())
    section = data["service"]
    assert section["queue"]["submitted"] == 10
    assert section["sessions"]["completed"] == 10
    assert section["sessions"]["failed"] == 0
    assert section["latency"]["session"]["count"] == 10
    assert section["latency"]["queue_wait"]["p50_seconds"] >= 0.0
    assert section["uptime_seconds"] > 0.0
    # The global metrics registry rides along in the same document.
    assert "counters" in data["metrics"]
    assert service.telemetry.exports >= 2


def test_summary_shape():
    with FleetService(workers=1) as service:
        service.submit(_cheap_session, 0)
        service.drain()
        summary = service.summary()
    assert summary["sessions"] == {"completed": 1, "failed": 0}
    assert summary["latency"]["execute"]["count"] == 1
    assert summary["queue"]["popped"] == 1
