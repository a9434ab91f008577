"""Counters, gauges and fixed-bucket histograms.

Instrumented code asks for instruments by dotted name::

    counter("collect.traces").inc()
    gauge("serve.queue_depth").set(4)
    histogram("ml.epoch_seconds").observe(elapsed)

While profiling is disabled the accessors in :mod:`repro.obs` return
the shared no-op, so hot paths pay one None comparison and nothing
else.  While enabled, the process's recorder owns the instruments and
:func:`repro.obs.flush_metrics` appends their running *totals*
(:func:`totals`) to the process's ``obs-*.jsonl`` spool file whenever
they changed.  A file's last metrics line is therefore that process's
whole contribution, and merging a run (:func:`merge_totals`) sums one
line per file.  A pool worker flushes after every task it runs (see
``repro.engine.engine._TimedTask``), because pool teardown skips
``atexit``; the parent's totals are written once, by
:func:`repro.obs.disable`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Union

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with sum and count.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets) or len(buckets) == 0:
            raise ValueError(f"histogram buckets must be sorted and non-empty: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


Instrument = Union[Counter, Gauge, Histogram]


def totals(instruments: Mapping[str, Instrument]) -> Dict[str, dict]:
    """The running totals of ``instruments``, as one metrics line holds them."""
    out: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
    for name, inst in sorted(instruments.items()):
        if isinstance(inst, Counter):
            out["counters"][name] = inst.value
        elif isinstance(inst, Gauge):
            out["gauges"][name] = inst.value
        else:
            out["histograms"][name] = {
                "buckets": list(inst.buckets),
                "counts": list(inst.counts),
                "sum": round(inst.sum, 9),
                "count": inst.count,
            }
    return out


def merge_totals(lines: Iterable[dict]) -> Dict[str, dict]:
    """Sum the totals of several processes, one metrics line each.

    Counters and histogram cells add up; a gauge keeps the value of the
    last line that sets it.
    """
    merged: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
    for line in lines:
        for name, value in line.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["gauges"].update(line.get("gauges", {}))
        for name, hist in line.get("histograms", {}).items():
            into = merged["histograms"].get(name)
            if into is None or into["buckets"] != hist["buckets"]:
                merged["histograms"][name] = dict(hist)  # counts are replaced, never mutated
            else:
                into["counts"] = [a + b for a, b in zip(into["counts"], hist["counts"])]
                into["sum"] = round(into["sum"] + hist["sum"], 9)
                into["count"] += hist["count"]
    merged["counters"] = {name: int(value) for name, value in merged["counters"].items()}
    return {k: dict(sorted(v.items())) for k, v in merged.items()}
