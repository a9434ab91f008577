"""Figure 4: loop- vs sweep-counting traces are strongly correlated.

The paper averages 100 normalized runs of each attacker per website and
reports Pearson correlations of r = 0.87 (nytimes.com), 0.79
(amazon.com) and 0.94 (weather.com): the two attackers' traces are
shaped by the same system events, even though one of them never touches
memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attacker import LoopCountingAttacker, SweepCountingAttacker
from repro.core.collector import TraceCollector
from repro.core.trace import average_traces
from repro.experiments.base import Claim, ExperimentResult, format_rows, register
from repro.sim.events import MS
from repro.sim.machine import MachineConfig
from repro.stats.summary import pearson_r
from repro.workload.browser import CHROME, LINUX
from repro.workload.catalog import marquee_sites


@dataclass
class Fig4Row:
    site: str
    correlation: float


@dataclass
class Fig4Result(ExperimentResult):
    rows: list[Fig4Row]
    n_runs: int

    def format_table(self) -> str:
        table = format_rows(
            ["website", "r(loop, sweep)"],
            [[row.site, f"{row.correlation:.2f}"] for row in self.rows],
        )
        return (
            f"Figure 4: attacker-trace correlation over {self.n_runs} runs\n" + table
        )


def _strong_correlation(result: Fig4Result, scale) -> bool:
    correlations = [row.correlation for row in result.rows]
    return bool(min(correlations) > 0.55 and sum(correlations) / len(correlations) > 0.65)


CLAIMS = (
    Claim("fig4.strong-correlation",
          "The attackers' averaged traces correlate above 0.55 on every site and above 0.65 "
          "on average (paper: 0.79-0.94).",
          _strong_correlation),
)


@register(
    "fig4",
    paper_ref="Figure 4",
    description="loop- vs sweep-counting averaged-trace correlation",
    claims=CLAIMS,
)
def run(ctx) -> Fig4Result:
    """Average n runs per attacker per site and correlate them."""
    n_runs = max(10, ctx.scale.traces_per_site)
    machine = MachineConfig(os=LINUX)
    collectors = {
        "loop": TraceCollector(
            machine, CHROME, attacker=LoopCountingAttacker(),
            period_ns=int(ctx.scale.period_ms * MS), seed=ctx.seed,
            engine=ctx.engine,
        ),
        "sweep": TraceCollector(
            machine, CHROME, attacker=SweepCountingAttacker(),
            period_ns=int(ctx.scale.period_ms * MS), seed=ctx.seed,
            engine=ctx.engine,
        ),
    }
    rows = []
    for site in marquee_sites():
        averages = {}
        for name, collector in collectors.items():
            traces = collector.collect(site, n_runs)
            averages[name] = average_traces(list(traces))
        rows.append(
            Fig4Row(site=site.name, correlation=pearson_r(averages["loop"], averages["sweep"]))
        )
    return Fig4Result(rows=rows, n_runs=n_runs)
