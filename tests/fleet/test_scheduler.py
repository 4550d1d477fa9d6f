"""Fleet scheduler tests: half-frame assignment + capture resolution."""

import pytest

from repro.fleet import FleetScheduler, make_scheme
from repro.mac import PriorityScheme, SlottedAlohaScheme, TdmaScheme


def test_make_scheme_names():
    assert isinstance(make_scheme("tdma"), TdmaScheme)
    assert isinstance(make_scheme("aloha"), SlottedAlohaScheme)
    assert isinstance(make_scheme("priority"), PriorityScheme)
    with pytest.raises(ValueError):
        make_scheme("csma")


def test_tdma_round_robin_assignment():
    scheduler = FleetScheduler(TdmaScheme(), rng=0)
    schedule = scheduler.assign(["a", "b", "c"], 6)
    assert schedule.owned_half_frames("a") == [0, 3]
    assert schedule.owned_half_frames("b") == [1, 4]
    assert schedule.owned_half_frames("c") == [2, 5]
    assert schedule.collision_fraction == 0.0
    assert schedule.airtime_utilisation == 1.0


def test_aloha_collisions_without_capture():
    scheme = SlottedAlohaScheme(p=1.0)  # everyone always transmits
    schedule = FleetScheduler(scheme, rng=0).assign(
        ["a", "b"], 10, {"a": -40.0, "b": -41.0}
    )
    # Equal-ish powers: every slot collides, nobody wins.
    assert schedule.collision_fraction == 1.0
    assert schedule.owned_half_frames("a") == []
    assert schedule.collided_half_frames("a") == list(range(10))


def test_aloha_capture_rescues_strong_tag():
    scheme = SlottedAlohaScheme(p=1.0)
    schedule = FleetScheduler(scheme, rng=0).assign(
        ["strong", "weak"], 10, {"strong": -30.0, "weak": -55.0}
    )
    assert schedule.owned_half_frames("strong") == list(range(10))
    assert schedule.owned_half_frames("weak") == []
    assert schedule.collision_fraction == 0.0
    assert schedule.collided_half_frames("weak") == list(range(10))


def test_collisions_destroy_all_without_powers():
    scheme = SlottedAlohaScheme(p=1.0)
    schedule = FleetScheduler(scheme, rng=0).assign(["a", "b"], 4)
    assert schedule.airtime_utilisation == 0.0


def test_idle_fraction_counted():
    scheme = SlottedAlohaScheme(p=0.0)  # nobody ever transmits
    schedule = FleetScheduler(scheme, rng=0).assign(["a"], 5, {"a": -40.0})
    assert schedule.idle_fraction == 1.0
    assert schedule.airtime_utilisation == 0.0


def test_scheduler_rejects_empty_fleet():
    with pytest.raises(ValueError):
        FleetScheduler(TdmaScheme(), rng=0).assign([], 4)
