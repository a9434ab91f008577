"""Figure 3: example loop-counting traces for three websites.

The paper shows 15-second loop-counting traces (P = 5 ms) collected in
Chrome on Linux while nytimes.com, amazon.com and weather.com load.
Counter values span roughly 21 000–27 000; darker bands (smaller
counters) mark interrupt-heavy phases: nytimes is front-loaded in its
first ~4 s, amazon is busy for ~2 s with spikes near 5 s and 10 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.collector import TraceCollector
from repro.core.trace import Trace
from repro.experiments.base import Claim, ExperimentResult, format_rows, register, sparkline
from repro.sim.events import MS
from repro.sim.machine import MachineConfig
from repro.workload.browser import CHROME, LINUX
from repro.workload.catalog import marquee_sites


@dataclass
class Fig3Result(ExperimentResult):
    """One example trace per marquee site."""

    traces: list[Trace]
    period_ms: float

    def counter_range(self) -> tuple[float, float]:
        """Global (min, max) counter over all traces."""
        vectors = [t.to_vector() for t in self.traces]
        return (
            float(min(v.min() for v in vectors)),
            float(max(v.max() for v in vectors)),
        )

    def format_table(self) -> str:
        rows = []
        for trace in self.traces:
            vector = trace.to_vector()
            rows.append(
                [
                    trace.label,
                    f"{vector.min():.0f}",
                    f"{vector.max():.0f}",
                    sparkline(vector),
                ]
            )
        header = ["website", "min count", "max count", f"trace (P={self.period_ms:g}ms)"]
        return "Figure 3: example loop-counting traces\n" + format_rows(header, rows)


def _front_loaded(result: Fig3Result, scale) -> bool:
    marquee = ("nytimes.com", "amazon.com")
    vectors = [trace.to_vector() for trace in result.traces if trace.label in marquee]
    halves = [(v[: len(v) // 2].mean(), v[len(v) // 2 :].mean()) for v in vectors]
    return len(halves) == 2 and all(early < late for early, late in halves)


CLAIMS = (
    Claim("fig3.counter-ceiling",
          "The largest counter, in P = 5 ms equivalents, lies between 24 000 and 29 000 "
          "(paper: ~27 000).",
          lambda r, s: 24_000 <= r.counter_range()[1] * 5.0 / r.period_ms <= 29_000),
    Claim("fig3.interrupt-dips",
          "Every trace dips below 0.93 x its maximum in interrupt-heavy phases (the dark bands).",
          lambda r, s: all(t.to_vector().min() < 0.93 * t.to_vector().max() for t in r.traces)),
    Claim("fig3.front-loaded",
          "nytimes.com and amazon.com count less in the first half of the trace than in "
          "the second.",
          _front_loaded),
)


@register(
    "fig3",
    paper_ref="Figure 3",
    description="example loop-counting traces for three marquee websites",
    claims=CLAIMS,
)
def run(ctx) -> Fig3Result:
    """Collect one loop-counting trace per marquee site."""
    collector = TraceCollector(
        MachineConfig(os=LINUX),
        CHROME,
        period_ns=int(ctx.scale.period_ms * MS),
        seed=ctx.seed,
        engine=ctx.engine,
    )
    traces = list(collector.collect(marquee_sites()))
    return Fig3Result(traces=traces, period_ms=ctx.scale.period_ms)
