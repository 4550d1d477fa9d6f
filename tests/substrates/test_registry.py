"""Substrate table contract: names, lookup errors, capability flags."""

import pytest

from repro.core.config import SystemConfig
from repro.substrates import available_substrates, get_substrate

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


def test_ambient_kinds():
    assert get_substrate("chip").ambient_kind == "lte-downlink"
    assert get_substrate("crs-ook").ambient_kind == "lte-downlink"
    assert get_substrate("crs-fsk").ambient_kind == "lte-downlink"
    assert get_substrate("coded-pilot").ambient_kind == "lte-downlink"
    assert get_substrate("srs-uplink").ambient_kind == "srs-uplink"


def test_capability_flags():
    chip = get_substrate("chip")
    assert chip.supports_decoded_reference
    assert chip.supports_circuit_sync
    srs = get_substrate("srs-uplink")
    assert not srs.supports_decoded_reference
    assert not srs.supports_circuit_sync
