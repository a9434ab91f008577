"""Tier-1 tests for :mod:`repro.data`."""

import dataclasses
import io
import zipfile

import numpy as np

from repro.data.format import X_MEMBER, shard_checksum
from repro.data.manifest import DatasetManifest

#: ``x.npy`` layouts :func:`repro.data.format.write_shard` never writes.
FOREIGN_X_LAYOUTS = ("deflated", "fortran")


def rewrite_x(path, layout: str) -> None:
    """Rewrite a shard's ``x.npy`` in a layout no shard writer produces.

    ``"deflated"`` compresses the member; ``"fortran"`` stores the
    matrix in Fortran order.  The other members are copied unchanged.
    """
    with zipfile.ZipFile(path) as archive:
        members = [(info, archive.read(info.filename)) for info in archive.infolist()]
    with zipfile.ZipFile(path, "w") as archive:
        for info, payload in members:
            if info.filename != X_MEMBER:
                archive.writestr(info, payload)
            elif layout == "deflated":
                archive.writestr(X_MEMBER, payload, compress_type=zipfile.ZIP_DEFLATED)
            else:
                x = np.load(io.BytesIO(payload), allow_pickle=False)
                buffer = io.BytesIO()
                np.lib.format.write_array(buffer, np.asfortranarray(x))
                archive.writestr(X_MEMBER, buffer.getvalue())


def rewrite_store_x(store_dir, layout: str) -> None:
    """:func:`rewrite_x` on a store's first shard, re-recorded in its
    manifest so the size and checksum checks pass."""
    manifest = DatasetManifest.load(store_dir)
    entry = manifest.shards[0]
    path = store_dir / entry.name
    rewrite_x(path, layout)
    manifest.shards[0] = dataclasses.replace(
        entry, n_bytes=path.stat().st_size, sha256=shard_checksum(path)
    )
    manifest.save(store_dir)
