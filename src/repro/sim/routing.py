"""Interrupt routing policies.

Operating systems balance *device* IRQs between cores in different ways
(paper §2.2): route each source to a fixed core, spread interrupts across
all cores, or — with Linux's ``irqbalance`` — pin all movable IRQs to one
chosen core, which is the isolation mechanism evaluated in Table 3.

Non-movable interrupts never pass through these policies:

* timer ticks are generated per-core,
* rescheduling IPIs and TLB shootdowns target whichever core the kernel
  needs (modeled as uniform/broadcast),
* softirqs and IRQ work run wherever the kernel happens to process them,
  usually the core that took the triggering device IRQ but regularly a
  different one — which is why pinning device IRQs away does not silence
  the channel (Takeaway 5).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


class RoutingPolicy:
    """Maps device-IRQ sources and individual interrupts to cores."""

    def __init__(self, n_cores: int):
        if n_cores < 1:
            raise ValueError(f"need at least one core, got {n_cores}")
        self.n_cores = int(n_cores)

    def route_source(self, source: str, count: int, rng: np.random.Generator) -> np.ndarray:
        """Target cores for ``count`` interrupts from device ``source``."""
        raise NotImplementedError


class AffinitySourceRouting(RoutingPolicy):
    """Each device source is bound to one core (default Linux behaviour).

    The binding is a stable hash of the source name so that, for example,
    the NIC always interrupts the same core across runs.
    """

    def core_for(self, source: str) -> int:
        return zlib.crc32(source.encode()) % self.n_cores

    def route_source(self, source: str, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(count, self.core_for(source), dtype=np.int64)


class PinnedRouting(RoutingPolicy):
    """``irqbalance``-style: every movable IRQ goes to one housekeeping core."""

    def __init__(self, n_cores: int, target_core: int = 0):
        super().__init__(n_cores)
        if not 0 <= target_core < n_cores:
            raise ValueError(f"target core {target_core} out of range for {n_cores} cores")
        self.target_core = int(target_core)

    def route_source(self, source: str, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(count, self.target_core, dtype=np.int64)


@dataclass
class SoftirqPlacement:
    """Where deferred work (softirqs / IRQ work) executes.

    With probability ``follow_probability`` a softirq runs on the core
    that handled the triggering device IRQ; otherwise the kernel processes
    it opportunistically on a uniformly random core (e.g. during that
    core's next timer tick).  Linux exposes no knob to change this, which
    is exactly why the paper calls these interrupts non-movable.
    """

    follow_probability: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.follow_probability <= 1.0:
            raise ValueError(
                f"follow_probability must be in [0, 1], got {self.follow_probability}"
            )

    def place(
        self, trigger_cores: np.ndarray, n_cores: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Pick an execution core for each deferred-work item."""
        trigger_cores = np.asarray(trigger_cores, dtype=np.int64)
        follow = rng.random(len(trigger_cores)) < self.follow_probability
        random_cores = rng.integers(0, n_cores, size=len(trigger_cores))
        return np.where(follow, trigger_cores, random_cores)
