"""Pluggable ambient-substrate modes; importing registers the built-ins."""

from repro.substrates.base import (
    Substrate,
    ambient_kind_for,
    available_substrates,
    get_substrate,
    iter_half_frames,
    register,
)
from repro.substrates.chip import ChipSubstrate
from repro.substrates.coded import CodedPilotSubstrate, CodedSchedule
from repro.substrates.crs import CrsFskSubstrate, CrsOokSubstrate
from repro.substrates.srs import SrsUplinkSubstrate, build_srs_capture

__all__ = [
    "Substrate",
    "ambient_kind_for",
    "available_substrates",
    "get_substrate",
    "iter_half_frames",
    "register",
    "ChipSubstrate",
    "CodedPilotSubstrate",
    "CodedSchedule",
    "CrsFskSubstrate",
    "CrsOokSubstrate",
    "SrsUplinkSubstrate",
    "build_srs_capture",
]
