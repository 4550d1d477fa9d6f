"""Pluggable ambient-substrate modes, by name in :data:`SUBSTRATES`."""

from repro.substrates.base import Substrate
from repro.substrates.chip import ChipSubstrate
from repro.substrates.coded import CodedPilotSubstrate
from repro.substrates.crs import CrsFskSubstrate, CrsOokSubstrate
from repro.substrates.srs import SrsUplinkSubstrate, build_srs_capture

#: Every substrate mode by its own ``name``.
SUBSTRATES = {
    cls.name: cls
    for cls in (
        ChipSubstrate,
        CodedPilotSubstrate,
        CrsFskSubstrate,
        CrsOokSubstrate,
        SrsUplinkSubstrate,
    )
}


def available_substrates():
    """The substrate names, sorted."""
    return tuple(sorted(SUBSTRATES))


def get_substrate(name):
    """Look up a substrate class by name.

    Unknown names raise a ``KeyError`` that lists every mode,
    so a typo in a config or CLI flag is self-explaining.
    """
    try:
        return SUBSTRATES[name]
    except KeyError:
        known = ", ".join(available_substrates())
        raise KeyError(
            f"unknown substrate {name!r}; registered substrates: {known}"
        ) from None


__all__ = [
    "SUBSTRATES",
    "Substrate",
    "available_substrates",
    "get_substrate",
    "ChipSubstrate",
    "CodedPilotSubstrate",
    "CrsFskSubstrate",
    "CrsOokSubstrate",
    "SrsUplinkSubstrate",
    "build_srs_capture",
]
