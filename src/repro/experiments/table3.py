"""Table 3: the loop-counting attack under incremental isolation.

A native (Python) loop-counting attacker — no browser timer degradation
— is evaluated while isolation mechanisms are added one at a time:
disable frequency scaling, pin attacker/victim to separate cores, bind
movable IRQs away with irqbalance, and finally run attacker and victim
in separate VMs.

Paper values (top-1 / top-5): 95.2/99.1 → 94.2/98.6 → 94.0/98.3 →
88.2/97.3 → 91.6/97.3.  Removing movable IRQs costs the most (but far
from everything — non-movable interrupts still leak), and VM isolation
*increases* accuracy via interrupt amplification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attacker import LoopCountingAttacker
from repro.core.pipeline import FingerprintingPipeline
from repro.experiments.base import Claim, ExperimentResult, base_rate, format_rows, register
from repro.isolation.ladder import isolation_ladder
from repro.ml.crossval import CrossValResult
from repro.timers.spec import NATIVE_TIMER
from repro.workload.browser import CHROME


@dataclass
class Table3Row:
    mechanism: str
    result: CrossValResult


@dataclass
class Table3Result(ExperimentResult):
    rows: list[Table3Row]

    def format_table(self) -> str:
        body = [
            [row.mechanism, row.result.top1.as_percent(), row.result.top5.as_percent()]
            for row in self.rows
        ]
        return "Table 3: accuracy under isolation mechanisms (Python attacker)\n" + format_rows(
            ["isolation mechanism", "top-1", "top-5"], body
        )

    def accuracy_by_step(self) -> list[float]:
        return [row.result.top1.mean for row in self.rows]


def _dvfs_and_pinning_barely_matter(result: Table3Result, scale) -> bool:
    default, no_dvfs, pinned = result.accuracy_by_step()[:3]
    return abs(default - no_dvfs) < 0.12 * default and abs(no_dvfs - pinned) < 0.12 * default


CLAIMS = (
    Claim("table3.attack-strong-by-default",
          "With no isolation, the native attacker's top-1 exceeds 4.8 x the base rate.",
          lambda r, s: r.rows[0].result.top1.mean > 4.8 * base_rate(s)),
    Claim("table3.dvfs-and-pinning-barely-matter",
          "Disabling frequency scaling, then pinning cores, each move top-1 by less than "
          "12 % of the default rung's.",
          _dvfs_and_pinning_barely_matter),
    Claim("table3.attack-survives-every-rung",
          "Every rung, all mechanisms together included, keeps top-1 above 3 x the base rate.",
          lambda r, s: all(row.result.top1.mean > 3 * base_rate(s) for row in r.rows)),
    Claim("table3.vm-does-not-help",
          "Separate VMs keep top-1 at 97 % or more of the irqbalance rung's.",
          lambda r, s: r.accuracy_by_step()[4] >= 0.97 * r.accuracy_by_step()[3]),
)


@register(
    "table3",
    paper_ref="Table 3",
    description="native loop-counting attack under incremental isolation",
    claims=CLAIMS,
)
def run(ctx) -> Table3Result:
    """Evaluate the native attacker at every rung of the ladder.

    The victim still runs Chrome (it is the browser loading sites); the
    *attacker* is a native Python process, so it uses the undegraded
    system timer (``time.time()`` / ``CLOCK_MONOTONIC``).
    """
    rows: list[Table3Row] = []
    for step in isolation_ladder():
        pipe = FingerprintingPipeline.from_spec(
            step.machine,
            CHROME,
            attacker=LoopCountingAttacker(),
            timer=NATIVE_TIMER,
            ctx=ctx,
        )
        rows.append(Table3Row(mechanism=step.name, result=pipe.run_closed_world()))
    return Table3Result(rows=rows)
