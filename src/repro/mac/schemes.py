"""Slot-level access schemes for multiple LScatter tags.

A "slot" here is one tag packet window (one half-frame).  All tags hear
the same PSS, so slot boundaries are shared without any control channel,
and :meth:`repro.fleet.scheduler.FleetScheduler.assign` is the one loop
that runs a scheme over them.

* :class:`TdmaScheme` — deterministic round-robin ownership; no
  collisions ever, per-tag rate divides by the tag count.
* :class:`SlottedAlohaScheme` — each of ``n`` tags transmits in each slot
  with probability ``1/n``; simultaneous transmissions collide unless one
  tag's received power exceeds the rest by :data:`CAPTURE_THRESHOLD_DB`.
* :class:`PriorityScheme` — an EPC-style central grant: one tag per slot,
  round robin over the sorted tag names, so no collisions, plus an
  optional congestion backoff that yields the channel while the cell
  reports congestion.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_whole

#: Power advantage (dB) at which the strongest colliding tag survives.
CAPTURE_THRESHOLD_DB = 10.0


class TdmaScheme:
    """Round-robin slot ownership derived from the shared PSS timing."""

    name = "tdma"

    def transmitters(self, slot_index, tag_names, rng):
        return [tag_names[slot_index % len(tag_names)]]


class SlottedAlohaScheme:
    """Random access: each of ``n`` tags transmits each slot with ``p = 1/n``,
    the attempt probability that maximises slotted-ALOHA throughput."""

    name = "aloha"

    def transmitters(self, slot_index, tag_names, rng):
        p = 1.0 / len(tag_names)
        return [name for name in tag_names if rng.random() < p]


class PriorityScheme:
    """EPC-style central grant: one tag per slot, sorted-name round robin.

    Models the downlink-scheduler view of an LTE core: a central grant
    (derived, like TDMA, from the shared PSS timing plus a static
    configuration) gives each slot to exactly one tag, so it never
    collides.  The ``k``-th granted slot goes to ``sorted(tag_names)[k %
    n]``: airtime is shared equally, in name order rather than list order,
    and a slot yielded to congestion does not advance the turn.
    """

    name = "priority"

    def __init__(self, congestion_backoff=False, max_backoff_slots=16):
        self._granted = 0
        #: MAC-level congestion backoff: when the cell reports congestion
        #: (a signalling storm or PDSCH burst eating the idle half-frames
        #: tags harvest), the whole fleet yields the channel for a bounded
        #: exponentially-growing number of slots instead of burning energy
        #: on doomed packets.  Off by default (legacy bit-identical).
        self.congestion_backoff = bool(congestion_backoff)
        require_whole("max_backoff_slots", max_backoff_slots, minimum=1)
        self.max_backoff_slots = int(max_backoff_slots)
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
        order = sorted(tag_names)
        winner = order[self._granted % len(order)]
        self._granted += 1
        return [winner]


def capture_winner(transmitters, tag_powers_dbm):
    """The capture rule: the tag whose packet survives a slot, or ``None``.

    A sole transmitter wins; of several, the strongest wins if it clears
    the runner-up by :data:`CAPTURE_THRESHOLD_DB`.
    """
    if len(transmitters) == 1:
        return transmitters[0]
    if not transmitters:
        return None
    powers = np.array([tag_powers_dbm[name] for name in transmitters])
    order = np.argsort(powers)[::-1]
    if powers[order[0]] - powers[order[1]] >= CAPTURE_THRESHOLD_DB:
        return transmitters[int(order[0])]
    return None
