"""Figure 5 and the §5.2 attribution claim.

Fig 5 plots, for three websites, the percentage of time the attacker's
core spends in interrupt handlers per 100 ms window, averaged over many
runs, with irqbalance keeping movable IRQs away — so nearly all handler
time is non-movable (softirqs, rescheduling IPIs, TLB shootdowns,
ticks).  The shape matches the loop-counting traces of Fig 3:
nytimes's activity concentrates in its first ~4 s, amazon spikes near
5 s and 10 s, and weather.com routinely triggers rescheduling
interrupts.

The same instrumented runs support the paper's headline proof: **over
99 % of attacker-visible execution gaps longer than 100 ns are caused
by interrupts**.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.base import Claim, ExperimentResult, format_rows, register, sparkline
from repro.sim.events import MS, seconds_to_ns
from repro.sim.interrupts import InterruptType
from repro.sim.machine import InterruptSynthesizer, MachineConfig, MachineRun
from repro.tracing.attribution import attribute_gaps
from repro.tracing.ebpf import KprobeTracer
from repro.tracing.histograms import interrupt_time_series
from repro.workload.browser import LINUX
from repro.workload.catalog import marquee_sites

#: Fig 5 splits handler time into softirq vs rescheduling interrupts.
SOFTIRQ_GROUP = (
    InterruptType.SOFTIRQ_NET_RX,
    InterruptType.SOFTIRQ_TIMER,
    InterruptType.SOFTIRQ_TASKLET,
    InterruptType.IRQ_WORK,
)
RESCHED_GROUP = (InterruptType.RESCHED_IPI, InterruptType.TLB_SHOOTDOWN)


@dataclass
class Fig5Row:
    site: str
    window_starts_ns: np.ndarray
    softirq_fraction: np.ndarray
    resched_fraction: np.ndarray

    @property
    def total_fraction(self) -> np.ndarray:
        return self.softirq_fraction + self.resched_fraction

    def peak_percent(self) -> float:
        return float(self.total_fraction.max() * 100)

    def resched_share(self) -> float:
        """Share of handler time due to rescheduling activity."""
        total = self.total_fraction.sum()
        return float(self.resched_fraction.sum() / total) if total > 0 else 0.0


@dataclass
class Fig5Result(ExperimentResult):
    rows: list[Fig5Row]
    attributed_fraction: float
    n_gaps: int
    n_runs: int

    def format_table(self) -> str:
        body = [
            [
                row.site,
                f"{row.peak_percent():.1f}%",
                f"{row.resched_share() * 100:.0f}%",
                sparkline(row.total_fraction),
            ]
            for row in self.rows
        ]
        table = format_rows(
            ["website", "peak handler time", "resched share", "handler-time profile"],
            body,
        )
        return (
            f"Figure 5: % time in interrupt handlers ({self.n_runs} runs/site)\n"
            + table
            + f"\n§5.2: {self.attributed_fraction * 100:.2f}% of {self.n_gaps} gaps "
            ">100ns attributed to interrupts"
        )


def simulate_load(task) -> MachineRun:
    """Synthesize one instrumented page load from ``(machine, site,
    horizon_ns, seed)``: the engine task of Figures 5 and 6
    (module-level, so picklable)."""
    machine, site, horizon_ns, run_seed = task
    synthesizer = InterruptSynthesizer(machine)
    rng = np.random.default_rng(run_seed)
    timeline = site.generate_load(rng, horizon_ns)
    return synthesizer.synthesize(timeline, style=site.style, rng=rng)


def _simulate_runs(
    machine: MachineConfig, site, n_runs: int, horizon_ns: int, seed: int, engine
) -> list[MachineRun]:
    tasks = [
        (machine, site, horizon_ns, seed * 7_001 + site.seed * 31 + k)
        for k in range(n_runs)
    ]
    return engine.map(simulate_load, tasks, stage="simulate")


def _row(result: Fig5Result, site: str) -> Fig5Row:
    return next(row for row in result.rows if row.site == site)


def _tracks_activity(result: Fig5Result, scale) -> bool:
    profile = _row(result, "nytimes.com").total_fraction
    n = len(profile)
    return bool(profile[: n // 2].mean() > 1.5 * profile[3 * n // 4 :].mean())


CLAIMS = (
    Claim("fig5.interrupts-explain-gaps",
          "Over 99 % of more than 500 attacker-visible gaps above 100 ns are attributed to "
          "interrupts.",
          lambda r, s: r.n_gaps > 500 and r.attributed_fraction > 0.99),
    Claim("fig5.weather-resched-heavy",
          "Rescheduling takes over twice the share of handler time on weather.com that it "
          "takes on amazon.com.",
          lambda r, s: _row(r, "weather.com").resched_share()
          > 2 * _row(r, "amazon.com").resched_share()),
    Claim("fig5.handler-time-tracks-activity",
          "nytimes.com's handler time over its first half averages over 1.5 x that of its "
          "last quarter.",
          _tracks_activity),
    Claim("fig5.peak-handler-share",
          "Every site's peak handler-time share lies between 1 % and 25 % of CPU time "
          "(paper: ~5 %).",
          lambda r, s: all(0.01 < row.total_fraction.max() < 0.25 for row in r.rows)),
)


@register(
    "fig5",
    paper_ref="Figure 5 / §5.2",
    description="interrupt handler-time profiles and gap attribution",
    claims=CLAIMS,
)
def run(ctx) -> Fig5Result:
    """Instrument runs with the eBPF tracer; aggregate handler time."""
    scale, seed = ctx.scale, ctx.seed
    n_runs = max(5, scale.traces_per_site // 2)
    horizon_ns = seconds_to_ns(15.0 if scale.name == "paper" else scale.trace_seconds)
    # The paper pins and irqbalances for this experiment so that almost
    # all observable handler time is non-movable.
    machine = MachineConfig(os=LINUX, irqbalance=True, pin_cores=True)
    rows: list[Fig5Row] = []
    attributed = 0
    total_gaps = 0
    for site in marquee_sites():
        runs = _simulate_runs(machine, site, n_runs, horizon_ns, seed, ctx.engine)
        times, softirq = interrupt_time_series(runs, window_ns=100 * MS, types=SOFTIRQ_GROUP)
        _, resched = interrupt_time_series(runs, window_ns=100 * MS, types=RESCHED_GROUP)
        rows.append(
            Fig5Row(
                site=site.name,
                window_starts_ns=times,
                softirq_fraction=softirq,
                resched_fraction=resched,
            )
        )
        report = attribute_gaps(KprobeTracer(runs[0]))
        attributed += report.n_attributed
        total_gaps += report.n_gaps
    return Fig5Result(
        rows=rows,
        attributed_fraction=attributed / total_gaps if total_gaps else 1.0,
        n_gaps=total_gaps,
        n_runs=n_runs,
    )
