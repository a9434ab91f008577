"""Crash safety of :func:`repro.jsondoc.write_atomic` and :func:`write_json`."""

from __future__ import annotations

import pytest

from repro.jsondoc import write_atomic, write_json


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"version": 1, "items": [1, 2]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        # An unserializable value fails before any byte is written.
        write_json(path, {"version": 2, "items": [1, object()]})
    assert path.read_bytes() == before
    assert [p.name for p in sorted(tmp_path.iterdir())] == ["doc.json"]


class TestWriteAtomic:
    def test_replaces_the_target(self, tmp_path):
        path = tmp_path / "blob.bin"
        write_atomic(path, b"old")
        assert write_atomic(path, b"new") == path
        assert path.read_bytes() == b"new"
        assert [p.name for p in sorted(tmp_path.iterdir())] == ["blob.bin"]

    def test_failed_write_keeps_previous_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "blob.bin"
        write_atomic(path, b"old")
        released = memoryview(b"new")
        released.release()
        with pytest.raises(ValueError):
            write_atomic(path, released)
        assert path.read_bytes() == b"old"
        assert [p.name for p in sorted(tmp_path.iterdir())] == ["blob.bin"]

    def test_failed_rename_keeps_previous_file_and_leaves_no_temp(
        self, tmp_path, fail_rename
    ):
        path = tmp_path / "blob.bin"
        write_atomic(path, b"old")
        fail_rename("blob.bin")
        with pytest.raises(OSError, match="injected"):
            write_atomic(path, b"new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in sorted(tmp_path.iterdir())] == ["blob.bin"]
