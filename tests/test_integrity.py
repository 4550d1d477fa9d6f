"""The shared atomic JSON writer."""

import json
import os

import pytest

from repro.utils.integrity import write_json


def test_write_json_format_and_replace(tmp_path):
    path = tmp_path / "deep" / "doc.json"
    assert write_json(str(path), {"b": 1, "a": [1, 2]}) == str(path)
    assert path.read_text() == json.dumps({"a": [1, 2], "b": 1}, indent=2) + "\n"
    write_json(str(path), {"c": 3})
    assert json.loads(path.read_text()) == {"c": 3}
    assert os.listdir(path.parent) == ["doc.json"]


def test_write_json_failure_keeps_old_document_and_no_temp(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"ok": True})
    with pytest.raises(TypeError):
        write_json(str(path), {"bad": object()})
    assert json.loads(path.read_text()) == {"ok": True}
    assert os.listdir(tmp_path) == ["doc.json"]
