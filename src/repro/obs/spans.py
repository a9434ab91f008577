"""Nested, thread-aware tracing spans.

A span measures one named region of code::

    with span("ml.train", fold=3):
        ...

On exit it records wall time (``perf_counter``), CPU time
(``process_time``) and the process's peak RSS so far, and appends one
JSON line to its process's spool file through the recorder it was
taken from (:func:`repro.obs.active`).  Nesting is tracked per thread:
every span knows its parent's id and depth, so an exporter can rebuild
the tree.
"""

from __future__ import annotations

import os
import threading
import time

try:
    import resource

    def peak_rss_kb() -> int:
        """This process's peak resident set size so far, in KiB.

        ``ru_maxrss`` is kilobytes on Linux and *bytes* on macOS.
        """
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if os.uname().sysname == "Darwin":
            peak //= 1024
        return int(peak)

except ImportError:  # non-POSIX: profile without memory numbers

    def peak_rss_kb() -> int:
        return 0


class Span:
    """One live measurement region; created by :func:`repro.obs.span`."""

    __slots__ = (
        "recorder",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "depth",
        "_t_wall",
        "_t_perf",
        "_t_cpu",
    )

    def __init__(self, recorder, name: str, attrs: dict):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "Span":
        """Attach attributes mid-span (e.g. an outcome)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self.recorder.stack()
        parent = stack[-1] if stack else None
        self.span_id = next(self.recorder.span_ids)
        self.parent_id = parent.span_id if parent is not None else None
        self.depth = parent.depth + 1 if parent is not None else 0
        stack.append(self)
        self._t_wall = time.time()
        self._t_perf = time.perf_counter()
        self._t_cpu = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall_s = time.perf_counter() - self._t_perf
        cpu_s = time.process_time() - self._t_cpu
        stack = self.recorder.stack()
        if stack and stack[-1] is self:
            stack.pop()
        event = {
            "type": "span",
            "name": self.name,
            "pid": self.recorder.pid,
            "tid": threading.get_ident(),
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "t_start": round(self._t_wall, 6),
            "wall_s": round(wall_s, 6),
            "cpu_s": round(cpu_s, 6),
            "rss_peak_kb": peak_rss_kb(),
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if self.attrs:
            event["attrs"] = self.attrs
        self.recorder.emit(event)
        return False
