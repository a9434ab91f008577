"""Figure 7: example outputs of the three secure timers.

The paper plots observed-time-vs-real-time staircases for Tor's
quantized timer (Δ = 100 ms), Chrome's jittered timer (Δ = 0.1 ms) and
the proposed randomized timer.  We sample each timer densely over a
window and report structural properties: monotonicity, maximum
deviation from real time, and the number of distinct output values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.base import Claim, ExperimentResult, format_rows, register, sparkline
from repro.sim.events import MS
from repro.experiments.fig8 import TIMER_LINEUP


@dataclass
class TimerSample:
    name: str
    real_ns: np.ndarray
    observed_ns: np.ndarray

    @property
    def max_deviation_ms(self) -> float:
        return float(np.abs(self.observed_ns - self.real_ns).max() / MS)

    @property
    def n_distinct(self) -> int:
        return len(np.unique(self.observed_ns))

    @property
    def monotonic(self) -> bool:
        return bool(np.all(np.diff(self.observed_ns) >= 0))


@dataclass
class Fig7Result(ExperimentResult):
    samples: list[TimerSample]
    window_ms: float

    def format_table(self) -> str:
        body = [
            [
                s.name,
                "yes" if s.monotonic else "NO",
                f"{s.max_deviation_ms:.2f}",
                f"{s.n_distinct}",
                sparkline(s.observed_ns, width=48),
            ]
            for s in self.samples
        ]
        return (
            f"Figure 7: timer outputs over {self.window_ms:g}ms of real time\n"
            + format_rows(
                ["timer", "monotonic", "max |err| (ms)", "distinct values", "staircase"],
                body,
            )
        )


def _sample(result: Fig7Result, word: str) -> TimerSample:
    return next(s for s in result.samples if word in s.name)


def _randomized_wanders(result: Fig7Result, scale) -> bool:
    ours, chrome = _sample(result, "ours"), _sample(result, "Chrome")
    return ours.max_deviation_ms > 10 * chrome.max_deviation_ms and 3 <= ours.n_distinct <= 60


CLAIMS = (
    Claim("fig7.monotone",
          "All three timers are monotone.",
          lambda r, s: all(sample.monotonic for sample in r.samples)),
    Claim("fig7.quantized-big-steps",
          "Tor's quantizer takes at most 3 values in 200 ms and strays over 90 ms from real time.",
          lambda r, s: _sample(r, "Tor").n_distinct <= 3
          and _sample(r, "Tor").max_deviation_ms > 90),
    Claim("fig7.jitter-within-2-delta",
          "Chrome's jittered timer strays less than 0.2 ms (2Δ) from real time.",
          lambda r, s: _sample(r, "Chrome").max_deviation_ms < 0.2),
    Claim("fig7.randomized-wanders",
          "The randomized timer strays over 10 x as far as Chrome's, in 3 to 60 random steps "
          "at random times.",
          _randomized_wanders),
)


@register(
    "fig7",
    paper_ref="Figure 7",
    description="observed-vs-real staircases for the three secure timers",
    claims=CLAIMS,
)
def run(ctx, window_ms: float = 200.0) -> Fig7Result:
    """Sample each timer at 0.05 ms resolution over the window."""
    reals = np.arange(0, window_ms * MS, 0.05 * MS)
    samples = []
    for name, spec in TIMER_LINEUP:
        timer = spec.build(seed=ctx.seed)
        observed = np.array([timer.read(float(t)) for t in reals])
        samples.append(TimerSample(name=name, real_ns=reals, observed_ns=observed))
    return Fig7Result(samples=samples, window_ms=window_ms)
