"""Substrate registry contract: names, lookup errors, capability flags."""

import pytest

from repro.core.config import SystemConfig
from repro.substrates import (
    Substrate,
    ambient_kind_for,
    available_substrates,
    get_substrate,
    register,
)

EXPECTED_MODES = ("chip", "coded-pilot", "crs-fsk", "crs-ook", "srs-uplink")


def test_builtin_modes_registered_sorted():
    assert available_substrates() == EXPECTED_MODES


def test_unknown_name_error_lists_registered_modes():
    with pytest.raises(KeyError) as excinfo:
        get_substrate("fsk")
    message = str(excinfo.value)
    assert "unknown substrate 'fsk'" in message
    for mode in EXPECTED_MODES:
        assert mode in message


def test_config_rejects_unknown_substrate_listing_modes():
    with pytest.raises(ValueError, match="registered substrates"):
        SystemConfig(substrate="morse")


def test_register_requires_a_name():
    with pytest.raises(ValueError, match="name"):

        @register
        class Nameless(Substrate):
            name = ""


def test_ambient_kinds():
    assert ambient_kind_for("chip") == "lte-downlink"
    assert ambient_kind_for("crs-ook") == "lte-downlink"
    assert ambient_kind_for("crs-fsk") == "lte-downlink"
    assert ambient_kind_for("coded-pilot") == "lte-downlink"
    assert ambient_kind_for("srs-uplink") == "srs-uplink"


def test_capability_flags():
    chip = get_substrate("chip")
    assert chip.supports_decoded_reference
    assert chip.supports_circuit_sync
    srs = get_substrate("srs-uplink")
    assert not srs.supports_decoded_reference
    assert not srs.supports_circuit_sync
