"""Multi-tag MAC tests."""

import pytest

from repro.fleet.scheduler import FleetScheduler
from repro.mac import (
    PriorityScheme,
    SlottedAlohaScheme,
    TdmaScheme,
    two_tag_collision,
)


def _contend(scheme, powers, n_slots, seed):
    """``n_slots`` of ``scheme`` over the tags of ``powers``, and each
    tag's successful slot count."""
    names = sorted(powers)
    schedule = FleetScheduler(scheme, rng=seed).assign(names, n_slots, powers)
    return schedule, {name: len(schedule.owned_half_frames(name)) for name in names}


def test_tdma_never_collides():
    powers = {f"tag{i}": -40.0 for i in range(5)}
    schedule, _ = _contend(TdmaScheme(), powers, 1000, 0)
    assert schedule.collision_fraction == 0.0
    assert schedule.airtime_utilisation == 1.0


def test_tdma_fair_share():
    powers = {f"tag{i}": -40.0 for i in range(4)}
    _, success = _contend(TdmaScheme(), powers, 1000, 1)
    shares = list(success.values())
    assert max(shares) - min(shares) <= 1


def test_aloha_throughput_near_1_over_e():
    # Equal powers: no colliding tag clears the capture threshold.
    powers = {f"tag{i}": -40.0 for i in range(8)}
    schedule, _ = _contend(SlottedAlohaScheme(), powers, 20_000, 2)
    # Slotted ALOHA at p=1/n: throughput -> (1-1/n)^(n-1) ~ 0.39 for n=8.
    assert schedule.airtime_utilisation == pytest.approx(0.39, abs=0.03)


def test_aloha_capture_helps_strong_tag():
    # The same seed draws the same attempts; only the powers differ.
    equal = {"strong": -40.0, "weak": -40.0}
    separated = {"strong": -30.0, "weak": -55.0}
    no_capture, no_capture_success = _contend(SlottedAlohaScheme(), equal, 10_000, 3)
    with_capture, with_capture_success = _contend(
        SlottedAlohaScheme(), separated, 10_000, 3
    )
    assert with_capture_success["strong"] > 1.5 * no_capture_success["strong"]
    assert with_capture.collision_fraction < no_capture.collision_fraction


def test_priority_equal_weights_degenerates_to_fair_share():
    powers = {f"tag{i}": -40.0 for i in range(4)}
    schedule, success = _contend(PriorityScheme(), powers, 1000, 0)
    shares = list(success.values())
    assert max(shares) - min(shares) <= 1
    assert schedule.airtime_utilisation == 1.0


def test_priority_is_deterministic():
    names = ["x", "y", "z"]

    def grants():
        scheme = PriorityScheme()
        return [scheme.transmitters(i, names, None)[0] for i in range(10)]

    first, second = grants(), grants()
    # Re-running the stateful scheme from scratch reproduces the grants:
    # the k-th granted slot goes to the k-th name, round robin.
    assert first == second
    assert first == ["x", "y", "z"] * 3 + ["x"]


def test_empty_tag_set_rejected():
    with pytest.raises(ValueError):
        _contend(TdmaScheme(), {}, 10, 0)


def test_iq_collision_equal_power_destroys():
    outcome = two_tag_collision(0.0, seed=1)
    assert outcome.strong_tag_ber > 0.1


def test_iq_collision_capture_at_advantage():
    outcome = two_tag_collision(12.0, seed=1)
    assert outcome.strong_tag_ber < 5e-3
    assert outcome.n_bits > 0


def test_iq_collision_monotone_in_advantage():
    bers = [two_tag_collision(adv, seed=2).strong_tag_ber for adv in (0, 6, 15)]
    assert bers[0] > bers[1] >= bers[2]


def test_priority_backoff_disabled_by_default():
    """Legacy behaviour is bit-identical: congestion signals are ignored."""
    plain = PriorityScheme()
    noisy = PriorityScheme()
    names = ["a", "b"]
    grants_plain, grants_noisy = [], []
    for slot in range(20):
        grants_plain.append(plain.transmitters(slot, names, None))
        grants_noisy.append(noisy.transmitters(slot, names, None))
        noisy.observe_congestion(slot, congested=True)
    assert grants_plain == grants_noisy
    assert not noisy.backing_off


def test_priority_backoff_doubles_and_saturates():
    scheme = PriorityScheme(congestion_backoff=True, max_backoff_slots=8)
    seen = []
    for slot in range(6):
        scheme.observe_congestion(slot, congested=True)
        seen.append(scheme.backoff_slots)
    # 1, 2, 4, 8, then pinned at the cap.
    assert seen == [1, 2, 4, 8, 8, 8]
    scheme.observe_congestion(6, congested=False)
    assert scheme.backoff_slots == 0
    assert not scheme.backing_off


def test_priority_backoff_yields_then_resumes():
    scheme = PriorityScheme(congestion_backoff=True, max_backoff_slots=4)
    names = ["a", "b"]
    assert scheme.transmitters(0, names, None)  # clean slot: grants flow
    scheme.observe_congestion(0, congested=True)
    assert scheme.transmitters(1, names, None) == []  # yielding
    # Storm ends but the yield window must still expire on its own: the
    # fleet cannot observe a clean slot while it is not transmitting.
    resumed = None
    for slot in range(2, 12):
        if scheme.transmitters(slot, names, None):
            resumed = slot
            break
    assert resumed is not None
    assert resumed - 1 <= scheme.max_backoff_slots + 1


def test_priority_backoff_rejects_bad_cap():
    with pytest.raises(ValueError):
        PriorityScheme(congestion_backoff=True, max_backoff_slots=0)


@pytest.mark.parametrize("cap", [2.5, float("nan"), "8"])
def test_priority_backoff_cap_must_be_whole_naming_the_field(cap):
    with pytest.raises(ValueError, match="^max_backoff_slots must be a whole number"):
        PriorityScheme(congestion_backoff=True, max_backoff_slots=cap)
