"""Fleet runner + parallel engine tests."""

import numpy as np
import pytest

from repro.fleet import AmbientCache, Deployment, FleetRunner, ParallelRunEngine
from repro.fleet.runner import TagTask, _simulate_tag


def _deployment(n_tags=2, n_frames=2):
    return Deployment.ring(n_tags, bandwidth_mhz=1.4, n_frames=n_frames)


def _tag_key(result):
    return (result.name, result.n_bits, result.n_errors, result.sync_error_us)


def test_tdma_fleet_end_to_end():
    report = FleetRunner(_deployment(2), scheme="tdma", seed=0).run(
        payload_length=5000
    )
    assert report.n_tags == 2
    assert report.n_half_frames == 4
    assert report.collision_fraction == 0.0
    assert report.aggregate_throughput_bps > 0
    owned = [t.owned_half_frames for t in report.tags]
    assert owned == [2, 2]
    assert report.transmit_invocations == 1
    assert "aggregate" in report.format_table()


def test_fleet_deterministic_per_seed():
    a = FleetRunner(_deployment(2), scheme="tdma", seed=3).run(payload_length=2000)
    b = FleetRunner(_deployment(2), scheme="tdma", seed=3).run(payload_length=2000)
    assert [_tag_key(t) for t in a.tags] == [_tag_key(t) for t in b.tags]


def test_parallel_matches_serial_bit_for_bit():
    cache = AmbientCache()
    serial = FleetRunner(
        _deployment(3), scheme="tdma", workers=1, seed=0, cache=cache
    ).run(payload_length=3000)
    parallel = FleetRunner(
        _deployment(3), scheme="tdma", workers=2, seed=0, cache=cache
    ).run(payload_length=3000)
    assert [_tag_key(t) for t in serial.tags] == [
        _tag_key(t) for t in parallel.tags
    ]
    # Both runs shared one eNodeB capture.
    assert cache.transmit_calls == 1
    assert parallel.workers == 2
    # Pooled tags report the task seconds their workers spent.
    assert parallel.serial_seconds_estimate > 0
    cache.clear()


def test_shared_cache_across_runs_and_schemes():
    cache = AmbientCache()
    FleetRunner(_deployment(2), scheme="tdma", seed=0, cache=cache).run(
        payload_length=1000
    )
    FleetRunner(_deployment(4), scheme="priority", seed=0, cache=cache).run(
        payload_length=1000
    )
    assert cache.transmit_calls == 1


class EveryoneTransmits:
    """A stub scheme: every tag transmits in every half-frame."""

    name = "everyone"

    def transmitters(self, slot_index, tag_names, rng):
        return list(tag_names)


def test_aloha_fleet_reports_collisions():
    # Force contention: everyone transmits every half-frame, similar powers.
    scheme = EveryoneTransmits()
    report = FleetRunner(_deployment(2), scheme=scheme, seed=0).run(
        payload_length=1000
    )
    assert report.collision_fraction == 1.0
    assert report.aggregate_throughput_bps == 0.0
    assert all(t.owned_half_frames == 0 for t in report.tags)
    assert all(t.collided_half_frames == 4 for t in report.tags)


def test_zero_airtime_tag_skips_simulation():
    report = FleetRunner(_deployment(1, n_frames=1), scheme="tdma", seed=0).run(
        payload_length=1000
    )
    assert report.tags[0].n_bits > 0
    # A tag that owns nothing reports empty results without simulating.
    task = TagTask(
        index=0,
        name="idle",
        config=None,
        seed=0,
        owned=(),
        collided=2,
        payload_length=10,
        enb_to_tag_ft=3.0,
        tag_to_ue_ft=3.0,
    )
    _, result = _simulate_tag(task)
    assert result.n_bits == 0
    assert result.collided_half_frames == 2
    assert np.isnan(result.ber)


# -- engine ---------------------------------------------------------------------


def _square(task):
    return 0.01, task * task


def test_engine_serial_path():
    engine = ParallelRunEngine(workers=1)
    assert engine.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert engine.telemetry.workers == 1
    assert engine.telemetry.task_seconds == pytest.approx(0.03)


def test_engine_parallel_preserves_order():
    engine = ParallelRunEngine(workers=2)
    assert engine.map(_square, list(range(8))) == [i * i for i in range(8)]
    assert engine.telemetry.workers == 2


def _flaky(task):
    if task == "boom":
        raise RuntimeError("worker exploded")
    return 0.0, task


def test_engine_retries_failed_task_serially():
    engine = ParallelRunEngine(workers=2, max_retries=1)
    with pytest.raises(RuntimeError):
        engine.map(_flaky, ["ok", "boom"])


@pytest.mark.parametrize("workers", [2.5, -3, 0, None])
def test_engine_rejects_fractional_or_nonpositive_workers(workers):
    with pytest.raises(ValueError, match="^workers must be a whole number >= 1"):
        ParallelRunEngine(workers=workers)


_TIMEOUT = "task_timeout_seconds must be a finite number > 0"
_RETRIES = "max_retries must be a whole number >= 0"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("task_timeout_seconds", -1.0, _TIMEOUT),
        ("task_timeout_seconds", 0.0, _TIMEOUT),
        ("task_timeout_seconds", float("inf"), _TIMEOUT),
        ("task_timeout_seconds", float("nan"), _TIMEOUT),
        ("max_retries", 2.5, _RETRIES),
        ("max_retries", "2", _RETRIES),
        ("max_retries", -1, _RETRIES),
        ("retry_backoff_seconds", float("nan"), "retry_backoff_seconds must be"),
        ("retry_backoff_seconds", -0.5, "retry_backoff_seconds must be"),
        ("backoff_cap_seconds", float("inf"), "backoff_cap_seconds must be"),
    ],
)
def test_engine_rejects_bad_timeout_retries_and_backoff(field, value, message):
    # Unchecked, a negative timeout flags every task as hung, inf
    # overflows the platform's time_t, NaN removes the deadline, and a
    # fractional or string retry count fails only once a task does.
    with pytest.raises(ValueError, match=f"^{message}"):
        ParallelRunEngine(workers=2, **{field: value})


@pytest.mark.parametrize("timeout", [-1.0, float("inf"), float("nan")])
def test_fleet_runner_rejects_bad_task_timeout(timeout):
    with pytest.raises(ValueError, match=f"^{_TIMEOUT}"):
        FleetRunner(_deployment(2), task_timeout_seconds=timeout)


@pytest.mark.parametrize("workers", [2.5, 0])
def test_fleet_runner_rejects_bad_workers(workers):
    with pytest.raises(ValueError, match="^workers must be a whole number >= 1"):
        FleetRunner(_deployment(2), workers=workers)


@pytest.mark.parametrize("payload_length", [2.5, -5])
def test_fleet_plan_rejects_bad_payload_length(payload_length):
    with FleetRunner(_deployment(2)) as runner:
        with pytest.raises(
            ValueError, match="^payload_length must be a whole number >= 0"
        ):
            runner.plan(payload_length=payload_length)

