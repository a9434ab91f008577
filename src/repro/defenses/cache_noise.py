"""Cache-sweep noise countermeasure (Shusterman et al., evaluated in §4.3).

The defense repeatedly evicts the entire last-level cache by allocating
an LLC-sized buffer and touching every line in a loop.  Its effect on
the *cache* channel is strong — victim occupancy readings are masked by
a constantly high baseline — but it generates almost no interrupts, so
the interrupt channel is untouched.  Table 2 shows exactly that: it
costs the sweep-counting attack only 2.2 points and the loop-counting
attack ~3 points, versus >20 points for interrupt noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.collector import NoiseHooks
from repro.workload.phases import ActivityBurst, ActivityTimeline, BurstKind


@dataclass(frozen=True)
class CacheSweepNoise:
    """Configuration for the cache-sweeping defender process."""

    #: Occupancy baseline the defender's sweeps impose on the LLC.
    occupancy_floor: float = 0.5
    #: CPU-load footprint of the sweeping thread (memory-bound, small).
    cpu_intensity: float = 0.06

    def __post_init__(self) -> None:
        if not 0.0 <= self.occupancy_floor <= 1.0:
            raise ValueError("occupancy_floor must be in [0, 1]")
        if not 0.0 < self.cpu_intensity <= 1.0:
            raise ValueError("cpu_intensity must be in (0, 1]")

    def hooks(self, horizon_ns: int) -> NoiseHooks:
        """Noise hooks applying this defense over a full trace."""
        sweeping = ActivityTimeline(
            [
                ActivityBurst(
                    start_ns=0.0,
                    duration_ns=float(horizon_ns),
                    kind=BurstKind.MEMORY,
                    intensity=self.cpu_intensity,
                    source="defense/cache-sweeper",
                )
            ],
            horizon_ns,
        )
        return NoiseHooks(
            extra_timelines=(sweeping,),
            occupancy_floor=self.occupancy_floor,
        )
