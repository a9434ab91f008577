"""Attacker-side gap analysis (the paper's Rust clock-polling attacker).

§5.2's user-space side: a native program pinned to one core repeatedly
reads ``CLOCK_MONOTONIC`` and records every jump larger than a
threshold.  Here the polling loop is replayed against a simulated run:
the attacker observes a gap wherever the core's merged gap timeline
steals more time than one polling iteration would take.

Combined with the kernel tracer (:mod:`repro.tracing`), this closes the
loop for the >99 % attribution claim: user-observed gaps on one side,
kernel-logged interrupts on the other, one shared clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.machine import MachineRun
from repro.sim.timeline import GapTimeline
from repro.tracing.attribution import AttributionReport, attribute_gaps
from repro.tracing.ebpf import KprobeTracer

#: Cost of one poll iteration (read clock, compare, store) — the
#: attacker cannot observe gaps shorter than this.
POLL_ITERATION_NS = 60.0


class ClockPollingAttacker:
    """Replays the §5.2 native attacker over a simulated run."""

    def __init__(self, threshold_ns: float = 100.0, core: int | None = None):
        if threshold_ns <= 0:
            raise ValueError(f"threshold must be positive, got {threshold_ns}")
        self.threshold_ns = float(threshold_ns)
        self.core = core

    def observe(self, run: MachineRun) -> GapTimeline:
        """All clock jumps above the threshold during the run."""
        core = run.config.attacker_core if self.core is None else self.core
        gaps = run.cores[core].gaps
        kept = gaps.durations() > max(self.threshold_ns, POLL_ITERATION_NS)
        return GapTimeline._trusted(gaps.gap_starts[kept], gaps.gap_ends[kept])


@dataclass
class LeakageAnalysis:
    """Joint user/kernel view of one run's execution gaps."""

    observed_gaps: GapTimeline
    attribution: AttributionReport
    stolen_fraction: float

    @property
    def attributed_fraction(self) -> float:
        """Fraction of observed gaps explained by logged interrupts."""
        return self.attribution.attributed_fraction


def analyze_run(
    run: MachineRun,
    threshold_ns: float = 100.0,
    core: int | None = None,
) -> LeakageAnalysis:
    """Full §5.2 analysis of one run: observe, trace, attribute."""
    attacker = ClockPollingAttacker(threshold_ns=threshold_ns, core=core)
    observed = attacker.observe(run)
    tracer = KprobeTracer(run, core=core)
    report = attribute_gaps(tracer, threshold_ns=threshold_ns)
    core_idx = run.config.attacker_core if core is None else core
    stolen = run.cores[core_idx].gaps.total_stolen_ns / run.timeline.horizon_ns
    return LeakageAnalysis(
        observed_gaps=observed,
        attribution=report,
        stolen_fraction=float(stolen),
    )
