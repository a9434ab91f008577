"""In-memory labeled trace datasets: merge, subsample, split.

The paper's pipeline separates trace collection (slow, Selenium-driven)
from model training.  On disk that separation is a sharded
:mod:`repro.data` store; :meth:`ShardedDataset.to_trace_dataset
<repro.data.reader.ShardedDataset.to_trace_dataset>` loads one into a
:class:`TraceDataset`, which can then be merged (e.g. closed world +
open world), subsampled and split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class TraceDataset:
    """A labeled trace matrix with collection metadata.

    **Aliasing contract.**  :meth:`select` — and the operations built on
    it, :meth:`filter_classes` and :meth:`train_test_split` — returns a
    dataset whose ``x`` is a *view* of this dataset's matrix whenever
    the selected rows form one contiguous ascending run (the shape class
    filtering produces on site-ordered collections), and an owned copy
    otherwise.  In-place writes to a view are visible through the parent
    and vice versa; callers that need independence should copy
    explicitly (``dataset.x = dataset.x.copy()``).  :meth:`merge` always
    returns an owned array.
    """

    x: np.ndarray
    labels: list[str]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise ValueError(f"expected (n_traces, length), got {self.x.shape}")
        if len(self.labels) != len(self.x):
            raise ValueError(
                f"{len(self.labels)} labels for {len(self.x)} traces"
            )

    def __len__(self) -> int:
        return len(self.x)

    @property
    def n_classes(self) -> int:
        return len(set(self.labels))

    @property
    def trace_length(self) -> int:
        return self.x.shape[1]

    def class_counts(self) -> dict[str, int]:
        """Traces per class label."""
        counts: dict[str, int] = {}
        for label in self.labels:
            counts[label] = counts.get(label, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # manipulation
    # ------------------------------------------------------------------

    def select(self, indices: Sequence[int]) -> "TraceDataset":
        """Subset by row indices.

        Contiguous ascending selections slice instead of fancy-indexing,
        so the result's ``x`` aliases this dataset's matrix (no copy of
        the trace payload); see the class docstring for the contract.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if (
            len(indices) > 0
            and indices[0] >= 0
            and np.array_equal(
                indices, np.arange(indices[0], indices[0] + len(indices))
            )
        ):
            start = int(indices[0])
            x = self.x[start : start + len(indices)]
        else:
            x = self.x[indices]
        return TraceDataset(
            x=x,
            labels=[self.labels[int(i)] for i in indices],
            metadata=dict(self.metadata),
        )

    def filter_classes(self, keep: Sequence[str]) -> "TraceDataset":
        """Keep only traces whose label is in ``keep``."""
        wanted = set(keep)
        indices = [i for i, label in enumerate(self.labels) if label in wanted]
        if not indices:
            raise ValueError("no traces left after filtering")
        return self.select(indices)

    def merge(self, other: "TraceDataset") -> "TraceDataset":
        """Concatenate two datasets (e.g. sensitive + non-sensitive)."""
        if other.trace_length != self.trace_length:
            raise ValueError(
                f"trace lengths differ: {self.trace_length} vs {other.trace_length}"
            )
        return TraceDataset(
            x=np.concatenate([self.x, other.x]),
            labels=self.labels + other.labels,
            metadata={**other.metadata, **self.metadata},
        )

    def train_test_split(
        self, test_fraction: float = 0.2, seed: int = 0
    ) -> tuple["TraceDataset", "TraceDataset"]:
        """Stratified split preserving per-class proportions."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
        rng = np.random.default_rng(seed)
        labels = np.array(self.labels)
        test_idx: list[int] = []
        for cls in np.unique(labels):
            members = np.flatnonzero(labels == cls)
            rng.shuffle(members)
            n_test = max(int(round(len(members) * test_fraction)), 1)
            if n_test >= len(members):
                raise ValueError(
                    f"class {cls!r} too small to split at {test_fraction}"
                )
            test_idx.extend(members[:n_test].tolist())
        test_mask = np.zeros(len(self), dtype=bool)
        test_mask[test_idx] = True
        return self.select(np.flatnonzero(~test_mask)), self.select(
            np.flatnonzero(test_mask)
        )
