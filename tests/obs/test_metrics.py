"""Unit tests for the process-local metrics registry."""

import pytest

from repro.obs import metrics


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics.reset_metrics()
    yield
    metrics.reset_metrics()


def test_counter_inc_and_snapshot():
    metrics.counter_inc("events")
    metrics.counter_inc("events", 4)
    assert metrics.counters_snapshot()["events"] == 5


def test_gauge_last_write_wins():
    metrics.gauge_set("level", 1.0)
    metrics.gauge_set("level", 2.5)
    assert metrics.metrics_snapshot()["gauges"]["level"] == 2.5


def test_collector_runs_at_snapshot_time():
    calls = []

    def collector():
        calls.append(1)
        return {"value": 42}

    metrics.register_collector("test.collector", collector)
    assert not calls  # pull-style: nothing until a snapshot asks
    snap = metrics.metrics_snapshot()
    assert snap["collected"]["test.collector"] == {"value": 42}
    assert len(calls) == 1


def test_broken_collector_reported_not_raised():
    def broken():
        raise RuntimeError("boom")

    metrics.register_collector("test.broken", broken)
    snap = metrics.metrics_snapshot()
    assert "boom" in snap["collected"]["test.broken"]["error"]


def test_reset_keeps_collectors():
    metrics.register_collector("test.keep", lambda: {"v": 1})
    metrics.counter_inc("gone")
    metrics.reset_metrics()
    snap = metrics.metrics_snapshot()
    assert "gone" not in snap["counters"]
    assert snap["collected"]["test.keep"] == {"v": 1}


def test_counter_delta_drops_zeroes():
    metrics.counter_inc("a", 2)
    before = metrics.counters_snapshot()
    metrics.counter_inc("a", 3)
    metrics.counter_inc("b")
    after = metrics.counters_snapshot()
    assert metrics.counter_delta(before, after) == {"a": 3, "b": 1}


def test_cache_collector_registered_by_utils_cache():
    """utils.cache hooks its stats into every metrics snapshot."""
    import repro.utils.cache  # noqa: F401  (import installs the collector)
    from repro.lte.pss import pss_sequence

    pss_sequence(0)
    totals = metrics.metrics_snapshot()["collected"]["utils.cache"]
    assert totals["caches"] >= 1
    assert totals["misses"] >= 1
