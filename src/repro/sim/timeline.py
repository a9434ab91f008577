"""Per-core interrupt timelines and execution-gap accounting.

A CPU core handles interrupts serially: when an interrupt arrives while
another handler is still running, it is processed back-to-back.  From the
point of view of the user-space task pinned to that core, consecutive or
overlapping handler executions merge into a single *execution gap* — the
paper's observable (§2.3, Fig 1).  This module turns a sorted batch of
interrupt arrivals into

* serialized per-record handling windows (used by the eBPF-style tracer),
* merged execution gaps, and
* O(log n) prefix-sum queries for "how much execution time was stolen
  between two instants", which the attacker-loop model is built on.

Everything is vectorized; a 15-second trace with ~10^5 interrupts costs a
few milliseconds to process.
"""

from __future__ import annotations

import numpy as np

from repro.sim.interrupts import InterruptBatch, InterruptType, merge_batches

#: Two handling windows closer than this merge into one observed gap.  A
#: user loop iteration is ~200 ns, so a shorter window of returned control
#: is not observable as separate execution.
GAP_MERGE_EPSILON_NS = 200.0


def serialize_handlers(
    arrivals: np.ndarray, durations: np.ndarray, assume_sorted: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Compute actual handling windows for arrival-sorted interrupts.

    ``start[i] = max(arrival[i], end[i-1])`` and ``end[i] = start[i] +
    duration[i]``, computed without a Python loop via the identity
    ``end[i] = cumsum(d)[i] + max_{j<=i}(arrival[j] - cumsum(d)[j-1])``.

    ``assume_sorted`` skips the sortedness validation for callers whose
    arrivals are sorted by construction (``merge_batches`` output).
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    durations = np.asarray(durations, dtype=np.float64)
    if len(arrivals) == 0:
        return arrivals.copy(), arrivals.copy()
    if not assume_sorted and np.any(np.diff(arrivals) < 0):
        raise ValueError("arrivals must be sorted")
    cum = np.cumsum(durations)
    offset = np.maximum.accumulate(arrivals - (cum - durations))
    ends = cum + offset
    starts = ends - durations
    return starts, ends


class GapTimeline:
    """Merged execution gaps on one core, with fast stolen-time queries."""

    def __init__(self, gap_starts: np.ndarray, gap_ends: np.ndarray):
        gap_starts = np.asarray(gap_starts, dtype=np.float64)
        gap_ends = np.asarray(gap_ends, dtype=np.float64)
        if gap_starts.shape != gap_ends.shape:
            raise ValueError("gap starts/ends must align")
        if len(gap_starts):
            if np.any(gap_ends < gap_starts):
                raise ValueError("gaps must have non-negative length")
            if np.any(gap_starts[1:] < gap_ends[:-1]):
                raise ValueError("gaps must be disjoint and sorted")
        self.gap_starts = gap_starts
        self.gap_ends = gap_ends
        durations = gap_ends - gap_starts
        # _cum_before[i] = total gap time in gaps 0..i-1.
        self._cum_before = np.concatenate([[0.0], np.cumsum(durations)])

    def __len__(self) -> int:
        return len(self.gap_starts)

    @classmethod
    def empty(cls) -> "GapTimeline":
        return cls(np.empty(0), np.empty(0))

    @classmethod
    def _trusted(cls, gap_starts: np.ndarray, gap_ends: np.ndarray) -> "GapTimeline":
        """Construct without validation.

        For internal callers (``CoreTimeline._merge_gaps``) whose gaps are
        sorted, disjoint and non-negative by construction.
        """
        self = cls.__new__(cls)
        self.gap_starts = gap_starts
        self.gap_ends = gap_ends
        self._cum_before = np.concatenate([[0.0], np.cumsum(gap_ends - gap_starts)])
        return self

    @property
    def total_stolen_ns(self) -> float:
        """Total execution time stolen by all gaps."""
        return float(self._cum_before[-1])

    def durations(self) -> np.ndarray:
        """Lengths of all gaps, in arrival order."""
        return self.gap_ends - self.gap_starts

    def stolen_before(self, t: np.ndarray | float) -> np.ndarray | float:
        """Cumulative gap time in ``[0, t)``; vectorized over ``t``."""
        t_arr = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.gap_ends, t_arr, side="left")
        base = self._cum_before[idx]
        starts = self.gap_starts[np.minimum(idx, max(len(self) - 1, 0))] if len(self) else t_arr
        if len(self):
            partial = np.where(idx < len(self), np.clip(t_arr - starts, 0.0, None), 0.0)
        else:
            partial = np.zeros_like(t_arr)
        result = base + partial
        return float(result) if np.isscalar(t) else result

    def stolen_between(self, t0: float, t1: float) -> float:
        """Gap time stolen within ``[t0, t1)``."""
        if t1 < t0:
            raise ValueError(f"interval is reversed: [{t0}, {t1})")
        return float(self.stolen_before(t1) - self.stolen_before(t0))

    def executed_between(self, t0: float, t1: float) -> float:
        """User-space execution time available within ``[t0, t1)``."""
        return (t1 - t0) - self.stolen_between(t0, t1)

    def gap_index_at(self, t: float) -> int:
        """Index of the gap containing ``t``, or -1 if the core is free."""
        idx = int(np.searchsorted(self.gap_ends, t, side="right"))
        if idx < len(self) and self.gap_starts[idx] <= t < self.gap_ends[idx]:
            return idx
        return -1

    def next_execution_time(self, t: float) -> float:
        """Earliest instant >= ``t`` at which user code is running."""
        idx = self.gap_index_at(t)
        return float(self.gap_ends[idx]) if idx >= 0 else float(t)


class CoreTimeline:
    """Full interrupt history of one core: records plus merged gaps."""

    def __init__(
        self,
        times: np.ndarray,
        durations: np.ndarray,
        type_codes: np.ndarray,
        cause_codes: np.ndarray,
        cause_names: list[str],
        merge_epsilon_ns: float = GAP_MERGE_EPSILON_NS,
        arrivals_sorted: bool = False,
    ):
        self.arrivals = np.asarray(times, dtype=np.float64)
        self.handler_durations = np.asarray(durations, dtype=np.float64)
        self.type_codes = np.asarray(type_codes, dtype=np.int64)
        self.cause_codes = np.asarray(cause_codes, dtype=np.int64)
        self.cause_names = list(cause_names)
        self.starts, self.ends = serialize_handlers(
            self.arrivals, self.handler_durations, assume_sorted=arrivals_sorted
        )
        self._merge_epsilon = float(merge_epsilon_ns)
        self.record_gap_index, self.gaps = self._merge_gaps()

    @classmethod
    def from_batches(cls, batches: list[InterruptBatch], **kwargs) -> "CoreTimeline":
        """Build a timeline from per-type interrupt batches."""
        times, durations, type_codes, cause_codes, cause_names = merge_batches(batches)
        return cls(
            times,
            durations,
            type_codes,
            cause_codes,
            cause_names,
            arrivals_sorted=True,
            **kwargs,
        )

    def _merge_gaps(self) -> tuple[np.ndarray, GapTimeline]:
        n = len(self.starts)
        if n == 0:
            return np.empty(0, dtype=np.int64), GapTimeline.empty()
        # A record opens a new gap when it starts strictly after the
        # previous record's end plus the observability epsilon.
        new_gap = np.empty(n, dtype=bool)
        new_gap[0] = True
        new_gap[1:] = self.starts[1:] > self.ends[:-1] + self._merge_epsilon
        gap_index = np.cumsum(new_gap) - 1
        first_in_gap = np.flatnonzero(new_gap)
        gap_starts = self.starts[first_in_gap]
        # Gap end = max end within the gap; ends are nondecreasing within a
        # serialized gap, so the last record's end is the gap end.  The last
        # record of gap g is the record before gap g+1's first record.
        gap_ends = self.ends[np.append(first_in_gap[1:] - 1, n - 1)]
        return gap_index, GapTimeline._trusted(gap_starts, gap_ends)

    def __len__(self) -> int:
        return len(self.arrivals)

    def itypes(self) -> list[InterruptType]:
        """Interrupt types of each record, in order."""
        all_types = list(InterruptType)
        return [all_types[int(c)] for c in self.type_codes]

    def records_in_gap(self, gap_idx: int) -> np.ndarray:
        """Indices of records merged into gap ``gap_idx``."""
        return np.flatnonzero(self.record_gap_index == gap_idx)
