"""§4.2 "Robustness to Background Noise": Slack + Spotify vs the attack.

The paper runs Slack and Spotify (playing music) alongside the attacker
and observes only a small accuracy drop (96.6 % → 93.4 % in Chrome on
Linux), concluding that ordinary applications do not generate enough
interrupt noise to disturb the attack — unlike the purpose-built
spurious-interrupt countermeasure of §6.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attacker import LoopCountingAttacker
from repro.core.collector import NoiseHooks
from repro.core.pipeline import FingerprintingPipeline
from repro.experiments.base import Claim, ExperimentResult, base_rate, format_rows, register
from repro.ml.crossval import CrossValResult
from repro.sim.machine import MachineConfig
from repro.workload.background import office_background
from repro.workload.browser import CHROME, LINUX


@dataclass
class BackgroundNoiseResult(ExperimentResult):
    quiet: CrossValResult
    noisy: CrossValResult

    @property
    def drop(self) -> float:
        return self.quiet.top1.mean - self.noisy.top1.mean

    def format_table(self) -> str:
        body = [
            ["no background noise", self.quiet.top1.as_percent()],
            ["Slack + Spotify running", self.noisy.top1.as_percent()],
        ]
        return (
            "§4.2 robustness to background noise (paper: 96.6 -> 93.4)\n"
            + format_rows(["condition", "top-1"], body)
            + f"\ndrop: {self.drop * 100:.1f} points"
        )


CLAIMS = (
    Claim("background-noise.attack-survives",
          "With Slack and Spotify running, top-1 stays above 4 x the base rate.",
          lambda r, s: r.noisy.top1.mean > 4 * base_rate(s)),
    Claim("background-noise.drop-is-small",
          "Slack and Spotify cost the attack less than 15 % of its quiet accuracy.",
          lambda r, s: r.drop < 0.15 * r.quiet.top1.mean),
)


@register(
    "background-noise",
    paper_ref="§4.2",
    description="attack robustness to Slack + Spotify background noise",
    claims=CLAIMS,
)
def run(ctx) -> BackgroundNoiseResult:
    """Evaluate the attack with and without office background apps."""
    pipeline = FingerprintingPipeline.from_spec(
        MachineConfig(os=LINUX), CHROME,
        attacker=LoopCountingAttacker(), ctx=ctx,
    )
    quiet = pipeline.run_closed_world()
    background = office_background(pipeline.collector.spec.horizon_ns, seed=ctx.seed)
    noisy = pipeline.run_closed_world(noise=NoiseHooks(extra_timelines=background))
    return BackgroundNoiseResult(quiet=quiet, noisy=noisy)
