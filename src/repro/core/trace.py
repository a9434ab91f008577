"""Trace containers and trace arithmetic.

A trace is the attack's raw output: one counter value per attacker
period, indexed by the *observed* (browser-timer) start time of the
period (Fig 2: ``Trace[t_begin] = counter``).  Classifiers consume a
fixed-length vector resampled onto a uniform observed-time grid; under
honest timers this matches real time, under the randomized-timer defense
the placement itself is scrambled — which is part of why the defense
works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.sim.events import MS, seconds_to_ns


@dataclass(frozen=True)
class TraceSpec:
    """Shape of a trace: total horizon and nominal attacker period."""

    horizon_ns: int
    period_ns: int

    def __post_init__(self) -> None:
        if self.horizon_ns <= 0 or self.period_ns <= 0:
            raise ValueError(f"horizon and period must be positive: {self}")
        if self.period_ns > self.horizon_ns:
            raise ValueError("period cannot exceed the horizon")

    @property
    def n_samples(self) -> int:
        """Length of the fixed-size vector representation."""
        return int(self.horizon_ns // self.period_ns)

    @classmethod
    def from_ms(cls, horizon_seconds: float, period_ms: float) -> "TraceSpec":
        return cls(seconds_to_ns(horizon_seconds), int(period_ms * MS))


@dataclass
class Trace:
    """One collected trace with its metadata."""

    spec: TraceSpec
    observed_starts: np.ndarray
    counters: np.ndarray
    label: str = ""
    attacker: str = ""

    def __post_init__(self) -> None:
        self.observed_starts = np.asarray(self.observed_starts, dtype=np.float64)
        self.counters = np.asarray(self.counters, dtype=np.float64)
        if self.observed_starts.shape != self.counters.shape:
            raise ValueError("observed_starts and counters must align")
        if len(self.counters) and self.counters.min() < 0:
            raise ValueError("counters cannot be negative")

    def __len__(self) -> int:
        return len(self.counters)

    def to_vector(self) -> np.ndarray:
        """Fixed-length vector on the uniform observed-time grid.

        Each sample lands in the grid cell of its observed start time
        (later samples win collisions, as a real attacker's array-store
        would); cells with no sample carry the previous value forward.
        """
        n = self.spec.n_samples
        vector = np.full(n, np.nan)
        idx = np.floor(self.observed_starts / self.spec.period_ns).astype(np.int64)
        valid = (idx >= 0) & (idx < n)
        vector[idx[valid]] = self.counters[valid]
        # Forward-fill gaps; leading gap takes the first available value.
        filled = _forward_fill(vector)
        return np.nan_to_num(filled, nan=0.0)

    def normalized(self) -> np.ndarray:
        """Vector divided by its maximum (the paper's Fig 4 normalization)."""
        vector = self.to_vector()
        peak = vector.max()
        return vector / peak if peak > 0 else vector


def _forward_fill(values: np.ndarray) -> np.ndarray:
    """Propagate the last finite value into NaN holes (then backfill head)."""
    result = values.copy()
    mask = np.isnan(result)
    if mask.all():
        return result
    idx = np.where(~mask, np.arange(len(result)), -1)
    np.maximum.accumulate(idx, out=idx)
    filled = np.where(idx >= 0, result[np.maximum(idx, 0)], np.nan)
    # Backfill anything before the first sample with the first value.
    first = np.flatnonzero(~np.isnan(filled))[0]
    filled[:first] = filled[first]
    return filled


def average_traces(traces: Sequence[Trace]) -> np.ndarray:
    """Mean of normalized trace vectors (Fig 4's 'averaged over 100 runs')."""
    if not traces:
        raise ValueError("cannot average zero traces")
    vectors = np.stack([t.normalized() for t in traces])
    return vectors.mean(axis=0)


def stack_dataset(traces: Iterable[Trace]) -> tuple[np.ndarray, list[str]]:
    """Stack traces into ``(X, labels)`` for the classifiers."""
    vectors: list[np.ndarray] = []
    labels: list[str] = []
    for trace in traces:
        vectors.append(trace.normalized())
        labels.append(trace.label)
    if not vectors:
        raise ValueError("empty dataset")
    return np.stack(vectors), labels
