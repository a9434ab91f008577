"""Crash safety of :func:`repro.jsondoc.write_json`."""

from __future__ import annotations

import pytest

from repro.jsondoc import write_json


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"version": 1, "items": [1, 2]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        # json.dump has already written part of the body when it meets
        # the unserializable value.
        write_json(path, {"version": 2, "items": [1, object()]})
    assert path.read_bytes() == before
    assert [p.name for p in sorted(tmp_path.iterdir())] == ["doc.json"]
