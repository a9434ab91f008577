"""Figure 8: real duration of one 5 ms attacker period per timer.

Fig 8 histograms how much *real* time one nominally-5-ms attacker loop
spans under each timer:

* quantized (Δ = 100 ms, Tor): exactly one 100 ms step — the attacker
  loses 5 ms granularity but measures 100 ms windows precisely;
* jittered (Δ = 0.1 ms, Chrome): tightly clustered around 5 ms
  (4.8–5.2 ms, roughly Gaussian);
* randomized (ours, Δ = 1 ms): the paper's Fig 8c spans ~0 to ~100 ms.
  Here a loop spans 1 to 31 ms, median 15 ms (400 periods, seed 0, at
  smoke and default scale alike): too wide for the attacker to know how
  much real time one loop took, but a third of the paper's range
  (EXPERIMENTS.md, Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.base import Claim, ExperimentResult, format_rows, register
from repro.sim.events import MS
from repro.timers.spec import (
    CHROME_TIMER,
    RANDOMIZED_DEFENSE_TIMER,
    TOR_TIMER,
    TimerSpec,
)

#: The three timers compared in Figs 7 and 8, in the paper's order.
TIMER_LINEUP: tuple[tuple[str, TimerSpec], ...] = (
    ("Quantized (Tor, 100ms)", TOR_TIMER),
    ("Jittered (Chrome, 0.1ms)", CHROME_TIMER),
    ("Randomized (ours, 1ms)", RANDOMIZED_DEFENSE_TIMER),
)


@dataclass
class PeriodDurationSample:
    timer_name: str
    durations_ms: np.ndarray

    def stats(self) -> tuple[float, float, float, float]:
        d = self.durations_ms
        return float(d.min()), float(np.median(d)), float(d.max()), float(d.std())


@dataclass
class Fig8Result(ExperimentResult):
    samples: list[PeriodDurationSample]
    period_ms: float
    n_periods: int

    def format_table(self) -> str:
        body = []
        for s in self.samples:
            lo, med, hi, std = s.stats()
            body.append(
                [s.timer_name, f"{lo:.2f}", f"{med:.2f}", f"{hi:.2f}", f"{std:.2f}"]
            )
        return (
            f"Figure 8: real duration of one {self.period_ms:g}ms attacker loop "
            f"({self.n_periods} periods)\n"
            + format_rows(["timer", "min (ms)", "median", "max", "std"], body)
        )

    def sample_for(self, name_prefix: str) -> PeriodDurationSample:
        for s in self.samples:
            if s.timer_name.startswith(name_prefix):
                return s
        raise KeyError(name_prefix)


def _quantized_locks(result: Fig8Result, scale) -> bool:
    lo, median, hi, std = result.sample_for("Quantized").stats()
    return lo == median == hi == 100.0 and std == 0.0


def _jitter_tight(result: Fig8Result, scale) -> bool:
    lo, _, hi, std = result.sample_for("Jittered").stats()
    return 4.8 <= lo and hi <= 5.2 and std < 0.2


def _randomized_spread(result: Fig8Result, scale) -> bool:
    _, _, hi, std = result.sample_for("Randomized").stats()
    return std > 20 * result.sample_for("Jittered").stats()[3] and hi > 20.0


CLAIMS = (
    Claim("fig8.quantized-locks-to-100ms",
          "Under Tor's quantizer every 5 ms loop spans exactly 100 ms.",
          _quantized_locks),
    Claim("fig8.jitter-tight",
          "Under Chrome's jitter a 5 ms loop spans 4.8-5.2 ms, with a standard deviation "
          "under 0.2 ms.",
          _jitter_tight),
    Claim("fig8.randomized-spread",
          "Under the randomized timer loop durations spread over 20 x wider than under "
          "jitter, and some exceed 20 ms.",
          _randomized_spread),
    Claim("fig8.randomized-bounded",
          "Randomized loop durations stay within 130 ms (the 100 ms resync threshold plus "
          "one step).",
          lambda r, s: bool(r.sample_for("Randomized").durations_ms.max() <= 130.0)),
)


@register(
    "fig8",
    paper_ref="Figure 8",
    description="real duration of one attacker period under each timer",
    claims=CLAIMS,
)
def run(ctx, period_ms: float = 5.0, n_periods: int = 400) -> Fig8Result:
    """Measure back-to-back period durations under each timer.

    No victim or interrupts here — the point is the timer's effect on
    period-boundary detection in isolation.
    """
    samples = []
    for name, spec in TIMER_LINEUP:
        timer = spec.build(seed=ctx.seed)
        t = 0.0
        durations = []
        for _ in range(n_periods):
            t_next = timer.first_crossing(t, period_ms * MS)
            durations.append((t_next - t) / MS)
            t = t_next if t_next > t else t + 0.01 * MS
        samples.append(
            PeriodDurationSample(timer_name=name, durations_ms=np.array(durations))
        )
    return Fig8Result(samples=samples, period_ms=period_ms, n_periods=n_periods)
