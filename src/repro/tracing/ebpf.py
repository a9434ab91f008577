"""eBPF-style kernel instrumentation (paper §5.2).

The paper attaches eBPF programs to kernel tracepoints to log the
timestamp and root cause of every interrupt arriving at a chosen core,
against the same ``CLOCK_MONOTONIC`` the user-space attacker polls.  Our
:class:`KprobeTracer` plays that role against the simulated machine: it
reads a core's :class:`~repro.sim.timeline.CoreTimeline` and exposes the
handler windows it logs as arrays, subject to the same limitation the
paper faced — Linux
restricts which kernel functions can be traced, so a tracer can be
configured to observe only a subset of interrupt types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence

import numpy as np

from repro.sim.interrupts import InterruptType
from repro.sim.machine import MachineRun
from repro.sim.timeline import CoreTimeline, GapTimeline


@dataclass(frozen=True)
class TracerConfig:
    """What the kernel lets us instrument.

    ``traceable_types`` limits visibility (kernels before 5.11 were more
    restrictive, paper §5.2); ``None`` means every *kernel* event is
    traceable.  ``UNKNOWN`` gaps (Turbo Boost stalls, footnote 4) are
    never traceable: they involve no kernel entry at all.
    """

    traceable_types: Optional[FrozenSet[InterruptType]] = None

    def can_trace(self, itype: InterruptType) -> bool:
        if itype is InterruptType.UNKNOWN:
            return False
        return self.traceable_types is None or itype in self.traceable_types


class KprobeTracer:
    """Logs interrupt entry/exit on one core of a simulated run."""

    def __init__(self, run: MachineRun, core: Optional[int] = None,
                 config: Optional[TracerConfig] = None):
        self.run = run
        self.core_index = run.config.attacker_core if core is None else int(core)
        if not 0 <= self.core_index < len(run.cores):
            raise ValueError(f"core {self.core_index} out of range")
        self.config = TracerConfig() if config is None else config
        self._timeline: CoreTimeline = run.cores[self.core_index]
        traceable = np.array([self.config.can_trace(t) for t in InterruptType], dtype=bool)
        self._visible_mask = traceable[self._timeline.type_codes]

    @property
    def timeline(self) -> CoreTimeline:
        """The underlying core timeline (ground truth, not tracer-visible)."""
        return self._timeline

    def __len__(self) -> int:
        return int(self._visible_mask.sum())

    def visible_indices(self) -> np.ndarray:
        """Record indices the tracer can observe."""
        return np.flatnonzero(self._visible_mask)

    def handler_windows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays ``(starts, ends, type_codes)`` of visible handler windows."""
        idx = self.visible_indices()
        return (
            self._timeline.starts[idx],
            self._timeline.ends[idx],
            self._timeline.type_codes[idx],
        )

    def handler_time_by_type(self) -> dict[InterruptType, float]:
        """Total handler nanoseconds per interrupt type."""
        starts, ends, codes = self.handler_windows()
        all_types = list(InterruptType)
        result: dict[InterruptType, float] = {}
        for code in np.unique(codes):
            mask = codes == code
            result[all_types[int(code)]] = float((ends[mask] - starts[mask]).sum())
        return result

    def handler_time_fraction(
        self,
        window_ns: float,
        types: Optional[Sequence[InterruptType]] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fraction of each time window spent in (selected) handlers.

        This regenerates Fig 5: per 100 ms interval, the share of CPU
        time consumed by interrupt handlers.
        """
        if window_ns <= 0:
            raise ValueError(f"window must be positive, got {window_ns}")
        starts, ends, codes = self.handler_windows()
        if types is not None:
            type_index = {t: i for i, t in enumerate(InterruptType)}
            wanted = np.isin(codes, [type_index[t] for t in types])
            starts, ends = starts[wanted], ends[wanted]
        horizon = self.run.timeline.horizon_ns
        edges = np.arange(0, horizon + window_ns, window_ns, dtype=np.float64)
        # Serialized handler windows are disjoint and sorted, so the
        # handler time before each edge is a stolen-time prefix sum.
        handled = GapTimeline._trusted(starts, ends).stolen_before(edges)
        return edges[:-1], np.diff(handled) / window_ns
