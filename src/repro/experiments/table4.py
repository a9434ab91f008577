"""Table 4: timer defenses against the loop-counting attack.

The attack (Python attacker, closed world) is evaluated under each
timer: Chrome's default jittered timer (Δ = 0.1 ms), a Tor-style
quantized timer (Δ = 100 ms), and the paper's randomized timer at
attacker period lengths P = 5, 100 and 500 ms.

Paper values (top-1 / top-5): jittered 96.6/99.4; quantized 86.0/96.9;
randomized P=5 1.0/5.1, P=100 1.9/6.9, P=500 5.2/13.7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attacker import LoopCountingAttacker
from repro.core.pipeline import FingerprintingPipeline
from repro.defenses.timer_defense import quantized_defense, randomized_defense
from repro.experiments.base import Claim, ExperimentResult, base_rate, format_rows, register
from repro.ml.crossval import CrossValResult
from repro.sim.machine import MachineConfig
from repro.timers.spec import CHROME_TIMER, TimerSpec
from repro.workload.browser import CHROME, LINUX


@dataclass
class Table4Row:
    timer_name: str
    resolution_ms: float
    period_ms: float
    result: CrossValResult


@dataclass
class Table4Result(ExperimentResult):
    rows: list[Table4Row]
    base_rate: float

    def format_table(self) -> str:
        body = [
            [
                row.timer_name,
                f"{row.resolution_ms:g}",
                f"{row.period_ms:g}",
                row.result.top1.as_percent(),
                row.result.top5.as_percent(),
            ]
            for row in self.rows
        ]
        return (
            "Table 4: accuracy with different timers "
            f"(base rate {self.base_rate * 100:.1f}%)\n"
            + format_rows(["timer", "Δ (ms)", "P (ms)", "top-1", "top-5"], body)
        )


def _evaluate(timer: TimerSpec, period_ms: float, ctx) -> CrossValResult:
    pipe = FingerprintingPipeline.from_spec(
        MachineConfig(os=LINUX),
        CHROME,
        attacker=LoopCountingAttacker(),
        timer=timer,
        ctx=ctx,
        scale=ctx.scale.with_(period_ms=period_ms),
    )
    return pipe.run_closed_world()


def _top1(result: Table4Result) -> list[float]:
    """Top-1 per row: jittered, quantized, randomized at P = 5/100/500 ms."""
    return [row.result.top1.mean for row in result.rows]


def _defense_ordering(result: Table4Result, scale) -> bool:
    jittered, quantized, randomized = _top1(result)[:3]
    return randomized < quantized < 0.95 * jittered and randomized < jittered / 2


def _longer_periods_do_not_rescue(result: Table4Result, scale) -> bool:
    jittered, _, _, p100, p500 = _top1(result)
    base = base_rate(scale)
    return max(p100, p500) < 0.6 * jittered and p100 < 7 * base and p500 < 12 * base


CLAIMS = (
    Claim("table4.jittered-does-not-defend",
          "Chrome's jittered timer leaves top-1 above 4.8 x the base rate.",
          lambda r, s: _top1(r)[0] > 4.8 * base_rate(s)),
    Claim("table4.defense-ordering",
          "Randomized (P = 5 ms) < quantized < 0.95 x jittered, and randomized is below "
          "half of jittered.",
          _defense_ordering),
    Claim("table4.randomized-near-chance",
          "The randomized timer at P = 5 ms holds top-1 below 3.5 x the base rate.",
          lambda r, s: _top1(r)[2] < 3.5 * base_rate(s)),
    Claim("table4.longer-periods-do-not-rescue",
          "At P = 100 and 500 ms the randomized timer keeps top-1 below 0.6 x jittered, "
          "and below 7 x and 12 x the base rate.",
          _longer_periods_do_not_rescue),
)


@register(
    "table4",
    paper_ref="Table 4",
    description="timer defenses vs the loop-counting attack",
    claims=CLAIMS,
)
def run(ctx) -> Table4Result:
    """Evaluate each timer configuration of Table 4."""
    quantized = quantized_defense(resolution_ms=100.0)
    randomized = randomized_defense()
    period = ctx.scale.period_ms
    rows = [
        Table4Row("Jittered", 0.1, period, _evaluate(CHROME_TIMER, period, ctx)),
        Table4Row(
            "Quantized", 100.0, period, _evaluate(quantized.spec, period, ctx)
        ),
    ]
    for p_ms in (period, 100.0, 500.0):
        rows.append(
            Table4Row(
                "Randomized", 1.0, p_ms, _evaluate(randomized.spec, p_ms, ctx)
            )
        )
    return Table4Result(rows=rows, base_rate=1.0 / ctx.scale.n_sites)
