"""Slot-level access schemes for multiple LScatter tags.

A "slot" here is one tag packet (one LTE slot, 0.5 ms).  All tags hear
the same PSS, so slot boundaries are shared without any control channel.

* :class:`TdmaScheme` — deterministic round-robin ownership; no
  collisions ever, per-tag rate divides by the tag count.
* :class:`SlottedAlohaScheme` — each tag transmits in each slot with
  probability ``p``; simultaneous transmissions collide unless one tag's
  received power exceeds the rest by the capture threshold.
* :class:`PriorityScheme` — an EPC-style central grant: one tag per slot
  by credit round robin, so no collisions, plus an optional congestion
  backoff that yields the channel while the cell reports congestion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import make_rng

#: Power advantage (dB) at which the strongest colliding tag survives.
CAPTURE_THRESHOLD_DB = 10.0


@dataclass
class ContentionReport:
    """Outcome of a contention simulation."""

    scheme: str
    n_tags: int
    slots: int
    per_tag_success: dict = field(default_factory=dict)
    collision_fraction: float = 0.0
    idle_fraction: float = 0.0

    @property
    def aggregate_success_rate(self):
        """Successful packets per slot across all tags."""
        total = sum(self.per_tag_success.values())
        return total / self.slots if self.slots else 0.0


class TdmaScheme:
    """Round-robin slot ownership derived from the shared PSS timing."""

    name = "tdma"

    def transmitters(self, slot_index, tag_names, rng):
        return [tag_names[slot_index % len(tag_names)]]


class SlottedAlohaScheme:
    """Random access: transmit each slot with probability ``p``."""

    name = "slotted-aloha"

    def __init__(self, p=None):
        #: Default attempt probability 1/n maximises ALOHA throughput.
        self.p = p

    def transmitters(self, slot_index, tag_names, rng):
        p = self.p if self.p is not None else 1.0 / len(tag_names)
        return [name for name in tag_names if rng.random() < p]


class PriorityScheme:
    """EPC-style central grant: one tag per slot, credit round robin.

    Models the downlink-scheduler view of an LTE core: a central grant
    (derived, like TDMA, from the shared PSS timing plus a static
    configuration) gives each slot to exactly one tag, so it never
    collides.  Each slot every tag earns one credit; the richest tag (ties
    broken by name order) transmits and pays the credits earned that
    slot, so airtime is shared equally.
    """

    name = "priority"

    def __init__(self, congestion_backoff=False, max_backoff_slots=16):
        self._credits = {}
        #: MAC-level congestion backoff: when the cell reports congestion
        #: (a signalling storm or PDSCH burst eating the idle half-frames
        #: tags harvest), the whole fleet yields the channel for a bounded
        #: exponentially-growing number of slots instead of burning energy
        #: on doomed packets.  Off by default (legacy bit-identical).
        self.congestion_backoff = bool(congestion_backoff)
        self.max_backoff_slots = int(max_backoff_slots)
        if self.max_backoff_slots < 1:
            raise ValueError("max_backoff_slots must be >= 1")
        self._backoff_slots = 0
        self._resume_slot = 0

    def observe_congestion(self, slot_index, congested):
        """Feed one slot's congestion signal into the backoff state.

        Each congested observation doubles the yield window (bounded at
        :attr:`max_backoff_slots`); a clean observation resets it, so the
        scheme recovers immediately once the storm passes.
        """
        if not self.congestion_backoff:
            return
        if congested:
            self._backoff_slots = min(
                self.max_backoff_slots, max(1, self._backoff_slots * 2)
            )
            self._resume_slot = int(slot_index) + 1 + self._backoff_slots
        else:
            self._backoff_slots = 0
            self._resume_slot = 0

    @property
    def backing_off(self):
        return self._backoff_slots > 0

    @property
    def backoff_slots(self):
        """Current yield-window length (always <= max_backoff_slots)."""
        return self._backoff_slots

    def transmitters(self, slot_index, tag_names, rng):
        if self.congestion_backoff and slot_index < self._resume_slot:
            return []
        for name in tag_names:
            self._credits[name] = self._credits.get(name, 0) + 1
        winner = min(tag_names, key=lambda name: (-self._credits[name], name))
        self._credits[winner] -= len(tag_names)
        return [winner]


def capture_winner(
    transmitters, tag_powers_dbm, capture_threshold_db=CAPTURE_THRESHOLD_DB
):
    """The capture rule: the tag whose packet survives a slot, or ``None``.

    A sole transmitter wins; of several, the strongest wins if it clears
    the runner-up by ``capture_threshold_db`` (never without powers).
    """
    if len(transmitters) == 1:
        return transmitters[0]
    if not transmitters or tag_powers_dbm is None:
        return None
    powers = np.array([tag_powers_dbm[name] for name in transmitters])
    order = np.argsort(powers)[::-1]
    if powers[order[0]] - powers[order[1]] >= capture_threshold_db:
        return transmitters[int(order[0])]
    return None


def simulate_contention(
    tag_powers_dbm,
    scheme,
    n_slots=2000,
    capture_threshold_db=CAPTURE_THRESHOLD_DB,
    rng=None,
):
    """Simulate ``n_slots`` of access among tags with given rx powers.

    ``tag_powers_dbm`` maps tag name -> received backscatter power at the
    UE; stronger tags can capture collided slots.
    Returns a :class:`ContentionReport`.
    """
    rng = make_rng(rng)
    names = sorted(tag_powers_dbm)
    if not names:
        raise ValueError("need at least one tag")
    success = {name: 0 for name in names}
    collisions = 0
    idle = 0
    for slot in range(int(n_slots)):
        active = scheme.transmitters(slot, names, rng)
        winner = capture_winner(active, tag_powers_dbm, capture_threshold_db)
        if winner is not None:
            success[winner] += 1
        elif active:
            collisions += 1
        else:
            idle += 1
    return ContentionReport(
        scheme=scheme.name,
        n_tags=len(names),
        slots=int(n_slots),
        per_tag_success=success,
        collision_fraction=collisions / n_slots,
        idle_fraction=idle / n_slots,
    )
