"""Reading a sharded store: lazy, zero-copy, layout-independent.

:class:`ShardedDataset` is the read side of :mod:`repro.data`.  Opening
a store touches only ``dataset.json``; labels load on first use without
paging trace data in (:func:`repro.data.format.read_labels` decompresses
just the label member), and each shard's trace matrix is a memory-mapped
view created on demand and cached — the OS pages rows in as they are
read, so streaming a terabyte store needs working-set memory only.

The central invariant is **layout independence**: every row has a global
index fixed by the build config (site order x trace order), so
:meth:`ShardedDataset.stream_batches` with a given seed yields
bit-identical batches whether the store was built as one shard or one
hundred, serially or in parallel, fresh or resumed.  The test suite
asserts this, and training through ``--dataset`` relies on it.
"""

from __future__ import annotations

import bisect
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.data.format import open_x_mmap, read_labels, read_meta, shard_checksum
from repro.data.manifest import DataError, DatasetManifest


class ShardedDataset:
    """Read-only handle on a complete store directory.

    Construction validates the manifest only; shard payloads are mapped
    lazily.  Arrays returned by :meth:`shard_x` may alias the files on
    disk and must not be written to; use :meth:`rows` or :meth:`stacked`
    for an owned copy.
    """

    def __init__(self, store_dir) -> None:
        self.store_dir = Path(store_dir)
        self.manifest = DatasetManifest.load(self.store_dir)
        if self.manifest.status != "complete":
            raise DataError(
                f"{self.store_dir}: store is still building; finish or re-run "
                f"'biggerfish data build' first"
            )
        if not self.manifest.shards:
            raise DataError(f"{self.store_dir}: store has no shards")
        # Global row index of each shard's first row, plus total.
        self._row_starts: List[int] = []
        total = 0
        for entry in self.manifest.shards:
            self._row_starts.append(total)
            total += entry.n_rows
        self._n_rows = total
        self._x_cache: Dict[str, np.ndarray] = {}
        self._labels: Optional[np.ndarray] = None

    # -- lazy accessors -------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def trace_length(self) -> int:
        return self.manifest.trace_length

    @property
    def labels(self) -> np.ndarray:
        """All row labels, in global row order; never touches trace data."""
        if self._labels is None:
            parts = [
                read_labels(self.store_dir / entry.name)
                for entry in self.manifest.shards
            ]
            self._labels = np.concatenate(parts) if parts else np.array([], dtype=str)
            if len(self._labels) != self._n_rows:
                raise DataError(
                    f"{self.store_dir}: label count {len(self._labels)} != "
                    f"manifest row count {self._n_rows}"
                )
        return self._labels

    @property
    def classes(self) -> List[str]:
        """Distinct labels, sorted; label data only, no trace pages."""
        return sorted(set(self.labels.tolist()))

    def shard_meta(self, index: int) -> dict:
        return read_meta(self.store_dir / self.manifest.shards[index].name)

    def shard_x(self, index: int) -> np.ndarray:
        """The shard's trace matrix as a cached read-only mmap view."""
        entry = self.manifest.shards[index]
        cached = self._x_cache.get(entry.name)
        if cached is None:
            cached = open_x_mmap(self.store_dir / entry.name)
            if cached.ndim != 2 or len(cached) != entry.n_rows:
                raise DataError(
                    f"{self.store_dir / entry.name}: shard shape {cached.shape} "
                    f"disagrees with manifest ({entry.n_rows} rows)"
                )
            self._x_cache[entry.name] = cached
        return cached

    # -- row addressing -------------------------------------------------

    def _locate(self, row: int) -> Tuple[int, int]:
        """Map a global row index to ``(shard index, local row)``."""
        if not 0 <= row < self._n_rows:
            raise IndexError(f"row {row} out of range [0, {self._n_rows})")
        shard = bisect.bisect_right(self._row_starts, row) - 1
        return shard, row - self._row_starts[shard]

    def rows(self, indices) -> np.ndarray:
        """Gather global rows into a fresh ``(len(indices), trace_length)``
        matrix, reading only the pages those rows live on."""
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty((len(indices), self.trace_length), dtype=np.float64)
        for position, row in enumerate(indices):
            shard, local = self._locate(int(row))
            out[position] = self.shard_x(shard)[local]
        obs.counter("data.rows_read").inc(len(indices))
        return out

    # -- whole-store views ---------------------------------------------

    def stacked(self) -> Tuple[np.ndarray, List[str]]:
        """Materialize the whole store as ``(X, labels)`` — the
        :meth:`repro.core.collector.TraceBatch.stacked` shape."""
        x = np.empty((self._n_rows, self.trace_length), dtype=np.float64)
        for index, entry in enumerate(self.manifest.shards):
            start = self._row_starts[index]
            x[start : start + entry.n_rows] = self.shard_x(index)
        obs.counter("data.rows_read").inc(self._n_rows)
        return x, self.labels.tolist()

    # -- streaming ------------------------------------------------------

    def stream_order(self, seed: int, epoch: int = 0) -> np.ndarray:
        """The global row order :meth:`stream_batches` visits.

        Part of the public contract: the permutation is drawn over
        global row indices only, so it is identical for every shard
        layout of the same config.  The ``data.roundtrip`` oracle uses
        it to invert the shuffle when comparing a streamed read-back
        against an in-memory collection.
        """
        return np.random.default_rng([seed, epoch]).permutation(self._n_rows)

    def stream_batches(
        self,
        batch_size: int,
        *,
        seed: int = 0,
        epochs: int = 1,
        drop_last: bool = False,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Seeded shuffled ``(x, labels)`` batches for training.

        Rows are visited in :meth:`stream_order`, which depends only on
        ``(n_rows, seed, epoch)`` — so the batch sequence is bit-identical
        for any shard layout of the same config, the property
        ``biggerfish train --dataset`` depends on for store-vs-in-memory
        parity.  Rows are gathered per batch, so memory stays at one
        batch regardless of store size.
        """
        if batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {batch_size}")
        labels = self.labels
        for epoch in range(epochs):
            order = self.stream_order(seed, epoch)
            for start in range(0, self._n_rows, batch_size):
                batch = order[start : start + batch_size]
                if drop_last and len(batch) < batch_size:
                    break
                obs.counter("data.batches").inc()
                yield self.rows(batch), labels[batch]


def verify_store(store_dir) -> List[str]:
    """Every problem found in a store; an empty list means it is sound.

    Checks the manifest parses, every shard file exists with its
    recorded size and SHA-256, label counts match manifest row counts,
    and mapped shapes match ``trace_length``.
    """
    store_dir = Path(store_dir)
    problems: List[str] = []
    try:
        manifest = DatasetManifest.load(store_dir)
    except DataError as exc:
        return [str(exc)]
    if manifest.status != "complete":
        problems.append(f"{store_dir}: status is {manifest.status!r}, not complete")
    with obs.span("data.verify", shards=len(manifest.shards)):
        for entry in manifest.shards:
            path = store_dir / entry.name
            if not path.exists():
                problems.append(f"{entry.name}: missing shard file")
                continue
            size = path.stat().st_size
            if size != entry.n_bytes:
                problems.append(
                    f"{entry.name}: {size} bytes on disk, manifest says "
                    f"{entry.n_bytes}"
                )
                continue
            if shard_checksum(path) != entry.sha256:
                problems.append(f"{entry.name}: checksum mismatch")
                continue
            try:
                labels = read_labels(path)
                x = open_x_mmap(path)
            except Exception as exc:  # corrupt member, bad header, ...
                problems.append(f"{entry.name}: unreadable: {exc}")
                continue
            if len(labels) != entry.n_rows:
                problems.append(
                    f"{entry.name}: {len(labels)} labels, manifest says "
                    f"{entry.n_rows} rows"
                )
            if x.shape != (entry.n_rows, manifest.trace_length):
                problems.append(
                    f"{entry.name}: matrix shape {x.shape}, expected "
                    f"({entry.n_rows}, {manifest.trace_length})"
                )
    return problems
