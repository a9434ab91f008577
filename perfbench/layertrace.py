"""Wall-time spans around the library's public entry points.

The traced run patches a fixed list of public methods and functions from
the benchmark's own code and restores the originals on exit.  Nothing
under ``src/`` records these spans, and the in-program :mod:`repro.obs`
spans are not used, so a later change may rename those freely.

Spans stay in memory.  Each thread keeps its own stack, so a call made
by the serving worker thread is a root span of that thread.  A span's
*self time* is its duration minus the part of that interval its direct
children cover; summed over one thread, self times count every second
spent inside wrapped calls exactly once.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

#: ``count(args, result) -> {name: amount}``, attached to a finished span.
Counter = Callable[[tuple, object], Dict[str, float]]


@dataclass
class Span:
    """One wrapped call: its name, interval, calling span and counts."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per span name.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so a parent's self time is never negative.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    totals: Dict[str, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            low, high = max(child.start, reach), min(child.end, span.end)
            if high > low:
                covered += high - low
                reach = high
        totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
    return totals


def call_counts(spans: Iterable[Span]) -> Dict[str, int]:
    """Number of spans per name."""
    calls: Dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    return calls


def count_totals(spans: Iterable[Span]) -> Dict[str, float]:
    """Every span's counts, summed by count name."""
    totals: Dict[str, float] = {}
    for span in spans:
        for name, amount in span.counts.items():
            totals[name] = totals.get(name, 0.0) + amount
    return totals


@dataclass(frozen=True)
class Wrap:
    """One patch point: ``owner.attr`` recorded as spans named ``name``.

    ``generator`` marks a generator function: each step it takes is a
    span, and the consumer's time between steps is not.
    """

    owner: object
    attr: str
    name: str
    count: Optional[Counter] = None
    generator: bool = False


class LayerTracer:
    """Records spans around every ``Wrap`` while used as a context manager.

    One tracer may be entered many times; its spans accumulate.
    """

    def __init__(self, wraps: Iterable[Wrap], clock: Callable[[], float] = time.perf_counter):
        self.wraps = list(wraps)
        self.spans: List[Span] = []
        self._clock = clock
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[tuple] = []

    def __enter__(self) -> "LayerTracer":
        for wrap in self.wraps:
            own = vars(wrap.owner)
            self._saved.append((wrap.owner, wrap.attr, wrap.attr in own, own.get(wrap.attr)))
            original = getattr(wrap.owner, wrap.attr)
            spanned = self._spanned_steps if wrap.generator else self._spanned_call
            setattr(wrap.owner, wrap.attr, spanned(original, wrap))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, owned, value = self._saved.pop()
            if owned:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(next(self._ids), parent, name, self._clock())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def _spanned_call(self, original, wrap: Wrap):
        @functools.wraps(original)
        def spanned(*args, **kwargs):
            span = self._open(wrap.name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if wrap.count is not None:
                span.counts.update(wrap.count(args, result))
            return result

        return spanned

    def _spanned_steps(self, original, wrap: Wrap):
        @functools.wraps(original)
        def spanned(*args, **kwargs):
            steps = original(*args, **kwargs)
            while True:
                span = self._open(wrap.name)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                if wrap.count is not None:
                    span.counts.update(wrap.count(args, item))
                yield item

        return spanned
