"""Half-frame assignment: the MAC's one slot loop over a fleet capture.

The tag's scheduling period is the 5 ms PSS cycle (one half-frame), so a
capture of ``F`` frames offers ``2F`` MAC slots.  :meth:`FleetScheduler.assign`
runs a scheme — one of :mod:`repro.mac.schemes`, or any object with a
``name`` and a ``transmitters(slot_index, tag_names, rng)`` method — over
those slots, resolves simultaneous transmissions with
:func:`~repro.mac.schemes.capture_winner` (the strongest tag survives a
collision if its received power clears ``CAPTURE_THRESHOLD_DB``), and
emits a :class:`FleetSchedule`: which tag successfully owns which
half-frame, plus collision/idle accounting.  The same loop drives the
contention sweep of ``benchmarks/test_ext_mac.py``.

Keeping collision resolution analytic (power-based capture, calibrated by
:func:`repro.mac.collision.two_tag_collision`) lets the IQ stage simulate
each tag independently against the shared ambient — the substrate the
parallel run engine exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mac.schemes import (
    PriorityScheme,
    SlottedAlohaScheme,
    TdmaScheme,
    capture_winner,
)
from repro.utils.rng import make_rng

#: Every scheme by its own ``name``, which the CLI and every report print.
#: ``aloha`` contends; the others grant.
_SCHEMES = {
    scheme.name: scheme for scheme in (TdmaScheme, SlottedAlohaScheme, PriorityScheme)
}
SCHEME_NAMES = tuple(_SCHEMES)


def make_scheme(name):
    """Instantiate a MAC scheme by name."""
    name = str(name).lower()
    if name not in _SCHEMES:
        raise ValueError(f"unknown scheme {name!r}; choose from {SCHEME_NAMES}")
    return _SCHEMES[name]()


@dataclass
class SlotOutcome:
    """What happened in one half-frame."""

    index: int
    transmitters: list = field(default_factory=list)
    winner: str | None = None

    @property
    def collided(self):
        return len(self.transmitters) > 1 and self.winner is None

    @property
    def idle(self):
        return not self.transmitters


@dataclass
class FleetSchedule:
    """Per-half-frame ownership for a whole capture."""

    scheme: str
    n_half_frames: int
    slots: list = field(default_factory=list)

    @property
    def collision_fraction(self):
        if not self.n_half_frames:
            return 0.0
        return sum(s.collided for s in self.slots) / self.n_half_frames

    @property
    def idle_fraction(self):
        if not self.n_half_frames:
            return 0.0
        return sum(s.idle for s in self.slots) / self.n_half_frames

    @property
    def airtime_utilisation(self):
        """Fraction of half-frames carrying a successful transmission."""
        if not self.n_half_frames:
            return 0.0
        return sum(s.winner is not None for s in self.slots) / self.n_half_frames

    def owned_half_frames(self, name):
        """Half-frame indices ``name`` successfully owns."""
        return [s.index for s in self.slots if s.winner == name]

    def collided_half_frames(self, name):
        """Half-frame indices where ``name`` transmitted but lost."""
        return [
            s.index
            for s in self.slots
            if name in s.transmitters and s.winner != name
        ]


class FleetScheduler:
    """Assign capture half-frames to tags under a MAC scheme."""

    def __init__(self, scheme, rng=None):
        self.scheme = scheme
        self.rng = make_rng(rng)

    def assign(self, tag_names, n_half_frames, tag_powers_dbm):
        """Run the scheme over ``n_half_frames`` slots.

        ``tag_powers_dbm`` (name -> received backscatter dBm at the UE)
        decides which colliding tag, if any, captures a slot.
        """
        tag_names = list(tag_names)
        if not tag_names:
            raise ValueError("need at least one tag")
        slots = []
        for index in range(int(n_half_frames)):
            transmitters = list(
                self.scheme.transmitters(index, tag_names, self.rng)
            )
            winner = capture_winner(transmitters, tag_powers_dbm)
            slots.append(
                SlotOutcome(index=index, transmitters=transmitters, winner=winner)
            )
        return FleetSchedule(
            scheme=self.scheme.name,
            n_half_frames=int(n_half_frames),
            slots=slots,
        )
