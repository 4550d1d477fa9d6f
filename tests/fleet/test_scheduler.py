"""Fleet scheduler tests: half-frame assignment + capture resolution."""

import pytest

from repro.fleet import FleetScheduler, make_scheme
from repro.fleet.scheduler import SCHEME_NAMES
from repro.mac import PriorityScheme, SlottedAlohaScheme, TdmaScheme


class FixedAttempts:
    """A stub scheme: every tag in ``attempting`` transmits in every slot."""

    name = "fixed"

    def __init__(self, attempting):
        self.attempting = attempting

    def transmitters(self, slot_index, tag_names, rng):
        return [name for name in tag_names if name in self.attempting]


def test_make_scheme_names():
    assert isinstance(make_scheme("tdma"), TdmaScheme)
    assert isinstance(make_scheme("aloha"), SlottedAlohaScheme)
    assert isinstance(make_scheme("priority"), PriorityScheme)
    # One name per scheme: the one the CLI takes is the one reports print.
    assert SCHEME_NAMES == ("tdma", "aloha", "priority")
    assert all(make_scheme(name).name == name for name in SCHEME_NAMES)
    with pytest.raises(ValueError):
        make_scheme("csma")


def test_tdma_round_robin_assignment():
    scheduler = FleetScheduler(TdmaScheme(), rng=0)
    schedule = scheduler.assign(
        ["a", "b", "c"], 6, {"a": -40.0, "b": -40.0, "c": -40.0}
    )
    assert schedule.owned_half_frames("a") == [0, 3]
    assert schedule.owned_half_frames("b") == [1, 4]
    assert schedule.owned_half_frames("c") == [2, 5]
    assert schedule.collision_fraction == 0.0
    assert schedule.airtime_utilisation == 1.0


def test_aloha_collisions_without_capture():
    scheme = FixedAttempts({"a", "b"})  # everyone always transmits
    schedule = FleetScheduler(scheme, rng=0).assign(
        ["a", "b"], 10, {"a": -40.0, "b": -41.0}
    )
    # Equal-ish powers: every slot collides, nobody wins.
    assert schedule.collision_fraction == 1.0
    assert schedule.owned_half_frames("a") == []
    assert schedule.collided_half_frames("a") == list(range(10))


def test_aloha_capture_rescues_strong_tag():
    scheme = FixedAttempts({"strong", "weak"})
    schedule = FleetScheduler(scheme, rng=0).assign(
        ["strong", "weak"], 10, {"strong": -30.0, "weak": -55.0}
    )
    assert schedule.owned_half_frames("strong") == list(range(10))
    assert schedule.owned_half_frames("weak") == []
    assert schedule.collision_fraction == 0.0
    assert schedule.collided_half_frames("weak") == list(range(10))


def test_idle_fraction_counted():
    scheme = FixedAttempts(set())  # nobody ever transmits
    schedule = FleetScheduler(scheme, rng=0).assign(["a"], 5, {"a": -40.0})
    assert schedule.idle_fraction == 1.0
    assert schedule.airtime_utilisation == 0.0


def test_scheduler_rejects_empty_fleet():
    with pytest.raises(ValueError):
        FleetScheduler(TdmaScheme(), rng=0).assign([], 4, {})


@pytest.mark.parametrize("n_tags", [*range(1, 13), 101, 102, 103])
def test_priority_grants_the_sorted_names_round_robin(n_tags):
    """Every ring tag gets its turn in name order, one grant per slot.

    From 101 tags name order is not list order (``tag10``, ``tag100``,
    ``tag11``), so at half-frame 11 TDMA grants ``tag11`` and priority
    grants ``tag100``.
    """
    from repro.fleet import Deployment

    deployment = Deployment.ring(n_tags)
    n_half_frames = 2 * n_tags + 12
    schedule = FleetScheduler(PriorityScheme(), rng=0).assign(
        deployment.names, n_half_frames, deployment.tag_powers_dbm()
    )
    order = sorted(deployment.names)
    assert [slot.transmitters for slot in schedule.slots] == [
        [order[k % n_tags]] for k in range(n_half_frames)
    ]
    assert [slot.winner for slot in schedule.slots] == [
        order[k % n_tags] for k in range(n_half_frames)
    ]


def test_priority_grant_order_counts_grants_through_a_backoff_storm():
    """A yielded slot grants nobody and does not advance the turn."""
    # Seven tags: the storm yields 120 slots, not a multiple of seven, so
    # a turn counted by slot index would resume on the wrong tag.
    names = [f"tag{i:02d}" for i in range(7)]
    scheme = PriorityScheme(congestion_backoff=True, max_backoff_slots=8)
    grants = []
    for slot in range(400):
        active = scheme.transmitters(slot, names, None)
        scheme.observe_congestion(slot, 100 <= slot < 220)
        grants.extend(active)
    assert 100 < len(grants) < 400
    assert grants == [names[k % 7] for k in range(len(grants))]
