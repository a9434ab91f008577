"""Figure 6: per-type distributions of interrupt-caused gap lengths.

For softirqs, timer interrupts, IRQ work and network-receive IRQs, the
paper histograms the *total user-space execution gap* each interrupt
participates in, over 50 page loads spanning 10 websites.  Three
structural facts are checked here:

* every gap is longer than ~1.5 µs (Meltdown-era kernel-entry cost);
* the IRQ-work spike coincides with the timer-interrupt spike, because
  IRQ work cannot fire alone and typically runs inside a timer tick;
* softirq gaps are broader and longer-tailed than first-level handlers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.base import Claim, ExperimentResult, format_rows, register, sparkline
from repro.experiments.fig5 import simulate_load
from repro.sim.events import US, seconds_to_ns
from repro.sim.interrupts import InterruptType
from repro.sim.machine import MachineConfig
from repro.tracing.attribution import attribute_every_core
from repro.tracing.histograms import (
    FIG6_TYPES,
    GapLengthHistogram,
    gap_length_histograms,
    type_coincidence,
)
from repro.workload.browser import LINUX
from repro.workload.catalog import closed_world


@dataclass
class Fig6Result(ExperimentResult):
    histograms: Dict[InterruptType, GapLengthHistogram]
    n_loads: int
    n_sites: int
    #: Fraction of IRQ-work gaps that also contain a timer interrupt.
    irq_work_timer_coincidence: float

    def format_table(self) -> str:
        body = []
        for itype in FIG6_TYPES:
            hist = self.histograms[itype]
            body.append(
                [
                    itype.value,
                    f"{hist.n_samples}",
                    f"{hist.min_ns() / US:.2f}",
                    f"{hist.mode_ns() / US:.2f}",
                    sparkline(hist.counts, width=48),
                ]
            )
        return (
            f"Figure 6: gap-length distributions ({self.n_loads} loads, "
            f"{self.n_sites} sites)\n"
            + format_rows(
                ["interrupt type", "n", "min (us)", "mode (us)", "distribution 0-12us"],
                body,
            )
            + f"\nIRQ-work gaps also containing a timer tick: "
            f"{self.irq_work_timer_coincidence * 100:.0f}%"
        )


def _softirqs_broadest(result: Fig6Result, scale) -> bool:
    spread = {itype: hist.samples.std() for itype, hist in result.histograms.items()}
    softirq = spread[InterruptType.SOFTIRQ_NET_RX]
    return bool(softirq > max(spread[InterruptType.NETWORK_RX], spread[InterruptType.TIMER]))


CLAIMS = (
    Claim("fig6.meltdown-floor",
          "Every interrupt type shows over 50 gaps, none shorter than 1.5 µs.",
          lambda r, s: all(hist.n_samples > 50 and hist.min_ns() >= 1.5 * US - 1e-6
                           for hist in r.histograms.values())),
    Claim("fig6.timer-mode-above-network",
          "Timer-interrupt gaps peak at a longer length than network-receive gaps.",
          lambda r, s: r.histograms[InterruptType.TIMER].mode_ns()
          > r.histograms[InterruptType.NETWORK_RX].mode_ns()),
    Claim("fig6.softirqs-broadest",
          "Softirq gap lengths spread wider than network-receive or timer gaps.",
          _softirqs_broadest),
    Claim("fig6.irq-work-rides-timer",
          "Over 60 % of IRQ-work gaps also contain a timer tick.",
          lambda r, s: r.irq_work_timer_coincidence > 0.6),
)


@register(
    "fig6",
    paper_ref="Figure 6",
    description="per-type distributions of interrupt-caused gap lengths",
    claims=CLAIMS,
)
def run(ctx) -> Fig6Result:
    """Histogram gap lengths over many page loads.

    The paper runs on a core that *does* receive network IRQs here (it
    needs network-receive samples), so no irqbalance; pinning stays on
    to avoid scheduler-contention gaps polluting the histograms.
    """
    scale, seed = ctx.scale, ctx.seed
    n_sites = min(10, scale.n_sites)
    loads_per_site = max(2, min(5, scale.traces_per_site // 3))
    horizon_ns = seconds_to_ns(min(scale.trace_seconds, 8.0))
    machine = MachineConfig(os=LINUX, pin_cores=True)
    tasks = [
        (machine, site, horizon_ns, seed * 9_973 + site.seed * 17 + k)
        for site in closed_world(n_sites)
        for k in range(loads_per_site)
    ]
    runs = ctx.engine.map(simulate_load, tasks, stage="simulate")
    reports = attribute_every_core(runs)
    return Fig6Result(
        histograms=gap_length_histograms(reports),
        n_loads=len(runs),
        n_sites=n_sites,
        irq_work_timer_coincidence=type_coincidence(
            reports, InterruptType.IRQ_WORK, InterruptType.TIMER
        ),
    )
