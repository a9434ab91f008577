"""Tests for the shard on-disk format (repro.data.format)."""

import zipfile
import zlib

import numpy as np
import pytest

from repro.data.format import (
    LABELS_MEMBER,
    META_MEMBER,
    X_MEMBER,
    ShardFormatError,
    open_x_mmap,
    read_labels,
    read_meta,
    shard_checksum,
    write_shard,
)

from tests.data import FOREIGN_X_LAYOUTS, rewrite_x


def make_shard(path, n_rows=6, length=10, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n_rows, length))
    labels = [f"site{i % 3}.com" for i in range(n_rows)]
    meta = {"seed": seed, "note": "test"}
    info = write_shard(path, x, labels, meta)
    return x, labels, meta, info


class TestWrite:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "shard.npz"
        x, labels, meta, info = make_shard(path)
        assert info.n_rows == 6
        assert info.n_bytes == path.stat().st_size
        assert read_meta(path) == meta
        np.testing.assert_array_equal(read_labels(path), np.array(labels))
        np.testing.assert_array_equal(np.asarray(open_x_mmap(path)), x)

    def test_checksum_covers_file_bytes(self, tmp_path):
        path = tmp_path / "shard.npz"
        _, _, _, info = make_shard(path)
        assert shard_checksum(path) == info.sha256

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        make_shard(a, seed=5)
        make_shard(b, seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_empty_and_misshapen(self, tmp_path):
        path = tmp_path / "bad.npz"
        with pytest.raises(ShardFormatError):
            write_shard(path, np.empty((0, 4)), [], {})
        with pytest.raises(ShardFormatError):
            write_shard(path, np.ones(4), ["a"] * 4, {})
        with pytest.raises(ShardFormatError):
            write_shard(path, np.ones((2, 4)), ["a"], {})

    def test_readable_by_plain_numpy(self, tmp_path):
        path = tmp_path / "shard.npz"
        x, labels, _, _ = make_shard(path)
        with np.load(path, allow_pickle=False) as archive:
            np.testing.assert_array_equal(archive["x"], x)
            assert [str(l) for l in archive["labels"]] == labels


class TestMmap:
    def test_zero_copy_handle(self, tmp_path):
        path = tmp_path / "shard.npz"
        x, _, _, _ = make_shard(path, n_rows=8, length=32)
        mapped = open_x_mmap(path)
        assert isinstance(mapped, np.memmap)
        np.testing.assert_array_equal(np.asarray(mapped), x)

    def test_x_member_is_stored_uncompressed(self, tmp_path):
        path = tmp_path / "shard.npz"
        make_shard(path)
        with zipfile.ZipFile(path) as archive:
            assert archive.getinfo(X_MEMBER).compress_type == zipfile.ZIP_STORED
            assert archive.getinfo(LABELS_MEMBER).compress_type == zipfile.ZIP_DEFLATED
            assert archive.getinfo(META_MEMBER).compress_type == zipfile.ZIP_DEFLATED

    @pytest.mark.parametrize("layout", FOREIGN_X_LAYOUTS)
    def test_foreign_x_layout_refused(self, tmp_path, layout):
        # Only write_shard writes shards, and it stores x.npy uncompressed
        # in C order; any other layout is a malformed shard.
        path = tmp_path / "shard.npz"
        make_shard(path)
        rewrite_x(path, layout)
        with pytest.raises(ShardFormatError, match=X_MEMBER):
            open_x_mmap(path)

    def test_missing_member(self, tmp_path):
        path = tmp_path / "hollow.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("other.npy", b"not traces")
        with pytest.raises(ShardFormatError):
            open_x_mmap(path)
        with pytest.raises(ShardFormatError):
            read_labels(path)
        with pytest.raises(ShardFormatError):
            read_meta(path)

    def test_damaged_deflate_stream_is_a_shard_format_error(self, tmp_path):
        path = tmp_path / "shard.npz"
        make_shard(path)
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo(LABELS_MEMBER)
        blob = bytearray(path.read_bytes())
        # Block type 3 is reserved: zlib refuses the stream outright.
        blob[info.header_offset + 30 + len(info.filename) + len(info.extra)] |= 0b110
        path.write_bytes(bytes(blob))
        with zipfile.ZipFile(path) as archive, pytest.raises(zlib.error):
            archive.read(LABELS_MEMBER)
        with pytest.raises(ShardFormatError, match="damaged shard archive"):
            read_labels(path)

    def test_labels_read_without_touching_x(self, tmp_path):
        # Truncate the file through the middle of x.npy: labels/meta live
        # after it in the archive, so this is only provable structurally —
        # corrupt x payload bytes, keep the directory, and read labels.
        path = tmp_path / "shard.npz"
        x, labels, meta, _ = make_shard(path, n_rows=64, length=256)
        blob = bytearray(path.read_bytes())
        # Scribble over the middle of the stored x payload.
        start = blob.find(b"\x93NUMPY") + 200
        blob[start : start + 1024] = b"\x00" * 1024
        path.write_bytes(bytes(blob))
        assert read_meta(path) == meta
        np.testing.assert_array_equal(read_labels(path), np.array(labels))
