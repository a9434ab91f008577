"""Gap ↔ interrupt attribution (paper §5.2).

The attacker's user-space view is a sequence of execution gaps (jumps in
the monotonic clock).  The tracer's kernel view is a log of interrupt
handler windows.  Because both share the simulation clock (as eBPF and
the Rust attacker share ``CLOCK_MONOTONIC``), gaps can be attributed to
the interrupts whose handler windows overlap them.  The paper's headline
result: **over 99 % of gaps longer than 100 ns are caused by
interrupts** — reproduced here by
:func:`attribute_gaps` / :class:`AttributionReport`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.interrupts import InterruptType
from repro.sim.machine import MachineRun
from repro.tracing.ebpf import KprobeTracer

#: The paper's gap-length threshold for the >99 % claim.
DEFAULT_GAP_THRESHOLD_NS = 100.0

#: Column of each interrupt type in :attr:`AttributionReport.types`; the
#: order of ``InterruptType``, which ``CoreTimeline.type_codes`` index.
_COLUMN = {itype: i for i, itype in enumerate(InterruptType)}


@dataclass
class AttributionReport:
    """The above-threshold gaps of one traced core and what caused them.

    ``types[g, c]`` is true when a tracer-visible record of the
    ``c``-th ``InterruptType`` was merged into gap ``g``.
    """

    gap_starts: np.ndarray
    gap_ends: np.ndarray
    types: np.ndarray
    threshold_ns: float

    @property
    def n_gaps(self) -> int:
        return len(self.gap_starts)

    @property
    def lengths_ns(self) -> np.ndarray:
        return self.gap_ends - self.gap_starts

    @property
    def n_attributed(self) -> int:
        return int(self.types.any(axis=1).sum())

    @property
    def attributed_fraction(self) -> float:
        """Fraction of above-threshold gaps explained by interrupts."""
        if not self.n_gaps:
            return 1.0
        return self.n_attributed / self.n_gaps

    def has_type(self, itype: InterruptType) -> np.ndarray:
        """Per gap: does a record of ``itype`` take part in it?"""
        return self.types[:, _COLUMN[itype]]

    def type_counter(self) -> Counter:
        """How often each interrupt type participates in a gap."""
        counts = self.types.sum(axis=0)
        return Counter({t: int(n) for t, n in zip(InterruptType, counts) if n})

    def gap_lengths_for_type(self, itype: InterruptType) -> np.ndarray:
        """Observed lengths of gaps involving ``itype`` (Fig 6's x-axis).

        Fig 6 plots the *total gap length observed by the attacker*, not
        the handler time of the individual interrupt — which is why the
        IRQ-work spike lines up with the timer-interrupt spike (IRQ work
        piggybacks on timer ticks).
        """
        return self.lengths_ns[self.has_type(itype)]


def attribute_gaps(
    tracer: KprobeTracer,
    threshold_ns: float = DEFAULT_GAP_THRESHOLD_NS,
) -> AttributionReport:
    """Match every above-threshold gap to the visible records merged into it."""
    if threshold_ns < 0:
        raise ValueError(f"threshold cannot be negative: {threshold_ns}")
    timeline = tracer.timeline
    gaps = timeline.gaps
    visible = tracer.visible_indices()
    types = np.zeros((len(gaps), len(_COLUMN)), dtype=bool)
    types[timeline.record_gap_index[visible], timeline.type_codes[visible]] = True
    selected = gaps.durations() > threshold_ns
    return AttributionReport(
        gap_starts=gaps.gap_starts[selected],
        gap_ends=gaps.gap_ends[selected],
        types=types[selected],
        threshold_ns=threshold_ns,
    )


def attribute_every_core(runs: Sequence[MachineRun]) -> list[AttributionReport]:
    """One report per core of each run, runs in order and cores in order.

    Fig 6 traces every core so that all interrupt types are observed,
    including network receive, which is bound to its source's core.
    """
    return [
        attribute_gaps(KprobeTracer(run, core=core))
        for run in runs
        for core in range(len(run.cores))
    ]
