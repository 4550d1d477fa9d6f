"""The monotone-degradation gate of netgrid, subgrid and stressgrid.

Each grid (and the ``repro substrates`` distance ladder) sweeps one axis
toward a harsher condition, and no step along it may improve the link:
goodput may rise, and BER may fall, by at most
``GATE_RELATIVE_SLACK * max(|previous value|, 1.0)`` per step.
"""

from __future__ import annotations

#: Relative slack per step of the monotone gate.
GATE_RELATIVE_SLACK = 1e-6


class MonotoneGateError(AssertionError):
    """A swept curve improved the link where it may only degrade."""


def step_violation(prev, nxt, ber="ber"):
    """``"goodput rose"``, ``"BER fell"`` or ``None`` for one step of a curve."""
    slack = GATE_RELATIVE_SLACK * max(abs(prev["goodput_kbps"]), 1.0)
    if nxt["goodput_kbps"] > prev["goodput_kbps"] + slack:
        return "goodput rose"
    ber_slack = GATE_RELATIVE_SLACK * max(abs(prev[ber]), 1.0)
    if nxt[ber] < prev[ber] - ber_slack:
        return "BER fell"
    return None


def gate_monotone(rows, label, axis, order=None, ber="ber"):
    """Sort ``rows`` along ``axis`` (or by ``order``); raise on an improving step."""
    ordered = sorted(rows, key=order or (lambda row: row[axis]))
    for prev, nxt in zip(ordered, ordered[1:]):
        violation = step_violation(prev, nxt, ber=ber)
        if violation is None:
            continue
        if violation == "goodput rose":
            before, after = (f"{r['goodput_kbps']:.6f} kbps" for r in (prev, nxt))
        else:
            before, after = (f"{r[ber]:.3e}" for r in (prev, nxt))
        raise MonotoneGateError(
            f"{label}: {violation} from {before} at {axis}={prev[axis]} to "
            f"{after} at {axis}={nxt[axis]}; a harsher condition must not "
            "improve the link"
        )
    return ordered
