"""Activity bursts: the unit of victim behaviour.

A website load is modeled as a set of *activity bursts* — intervals of
network traffic, rendering, JavaScript compute, memory traffic, disk and
input activity.  Bursts are what the interrupt synthesizer turns into
device IRQs, softirqs, rescheduling IPIs and TLB shootdowns, and what the
cache model turns into LLC occupancy.

The per-kind interrupt rates and handler-load factors below are the
calibration surface described in DESIGN.md §6: they are chosen so that a
heavy burst steals up to ~20 % of the attacker core's time (Fig 3's
counter dip from ~27 000 to ~21 000) while per-type gap lengths stay in
Fig 6's 1.5–10 µs band.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.sim.events import MS, SEC


class BurstKind(enum.Enum):
    """Categories of victim activity, by the system resource they drive."""

    NETWORK = "network"  # packet arrivals -> NIC IRQs + NET_RX softirqs
    RENDER = "render"  # GPU work -> graphics IRQs + IRQ work
    COMPUTE = "compute"  # JS/layout CPU phases -> resched IPIs + TLB shootdowns
    MEMORY = "memory"  # working-set growth -> LLC occupancy (no interrupts)
    DISK = "disk"  # cache/disk writes -> SATA IRQs + tasklet softirqs
    INPUT = "input"  # user input -> keyboard IRQs


@dataclass(frozen=True)
class KindProfile:
    """How strongly a burst of one kind exercises the interrupt system.

    ``irq_rate_hz`` is the device-IRQ rate at intensity 1.0;
    ``deferred_per_irq`` the expected number of softirq/IRQ-work items per
    device IRQ; ``duration_load_factor`` scales softirq handler time with
    intensity (heavy bursts defer more work per softirq, stretching the
    handler); ``cpu_load`` the burst's contribution to system load (DVFS,
    scheduler contention).
    """

    irq_rate_hz: float
    deferred_per_irq: float
    duration_load_factor: float
    cpu_load: float


#: Calibrated per-kind interrupt profiles (DESIGN.md §6).
KIND_PROFILES: dict[BurstKind, KindProfile] = {
    BurstKind.NETWORK: KindProfile(
        irq_rate_hz=5_200.0, deferred_per_irq=0.9, duration_load_factor=7.0, cpu_load=0.30
    ),
    BurstKind.RENDER: KindProfile(
        irq_rate_hz=3_200.0, deferred_per_irq=0.5, duration_load_factor=4.0, cpu_load=0.45
    ),
    BurstKind.COMPUTE: KindProfile(
        irq_rate_hz=2_400.0, deferred_per_irq=0.25, duration_load_factor=3.0, cpu_load=0.70
    ),
    BurstKind.MEMORY: KindProfile(
        irq_rate_hz=0.0, deferred_per_irq=0.0, duration_load_factor=0.0, cpu_load=0.25
    ),
    BurstKind.DISK: KindProfile(
        irq_rate_hz=900.0, deferred_per_irq=0.6, duration_load_factor=3.0, cpu_load=0.10
    ),
    # A full-intensity INPUT burst is a keystroke: the press/release IRQ
    # pair plus controller traffic within a couple of milliseconds.
    BurstKind.INPUT: KindProfile(
        irq_rate_hz=700.0, deferred_per_irq=0.1, duration_load_factor=1.0, cpu_load=0.02
    ),
}


@dataclass(frozen=True)
class ActivityBurst:
    """One interval of victim activity.

    ``intensity`` in (0, 1] scales interrupt rates and handler load;
    ``source`` names the device/origin (used for IRQ routing affinity and
    tracer attribution).

    ``ripple_hz``/``duty`` describe the burst's internal micro-structure:
    real network bursts are packet *trains* and render bursts follow a
    frame cadence, so activity pulses on and off at 8-40 Hz rather than
    arriving uniformly.  This sub-100 ms structure is what a fine-grained
    timer resolves and a Tor-style 100 ms quantizer cannot (Table 4).
    ``ripple_hz = 0`` means a homogeneous burst.
    """

    start_ns: float
    duration_ns: float
    kind: BurstKind
    intensity: float
    source: str = "victim"
    ripple_hz: float = 0.0
    duty: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_ns <= 0:
            raise ValueError(f"burst duration must be positive, got {self.duration_ns}")
        if not 0.0 < self.intensity <= 1.0:
            raise ValueError(f"intensity must be in (0, 1], got {self.intensity}")
        if self.ripple_hz < 0:
            raise ValueError(f"ripple_hz cannot be negative, got {self.ripple_hz}")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1], got {self.duty}")

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns


class ActivityTimeline:
    """All bursts of one victim run, with load and occupancy queries."""

    def __init__(self, bursts: Sequence[ActivityBurst], horizon_ns: int):
        if horizon_ns <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_ns}")
        self.bursts = sorted(bursts, key=lambda b: b.start_ns)
        self.horizon_ns = int(horizon_ns)

    def __len__(self) -> int:
        return len(self.bursts)

    def __iter__(self):
        return iter(self.bursts)

    def cache_token(self) -> str:
        """Canonical identity for the trace cache (burst-content hash)."""
        from repro.engine.cache import stable_token

        return stable_token({"bursts": self.bursts, "horizon_ns": self.horizon_ns})

    def of_kind(self, kind: BurstKind) -> list[ActivityBurst]:
        """Bursts of one kind, in time order."""
        return [b for b in self.bursts if b.kind is kind]

    def load_at(self, t_ns: float) -> float:
        """Instantaneous system load in [0, 1] (sum of active bursts)."""
        load = 0.0
        for burst in self.bursts:
            if burst.start_ns <= t_ns < burst.end_ns:
                load += KIND_PROFILES[burst.kind].cpu_load * burst.intensity
        return min(load, 1.0)

    def _load_support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-burst ``(starts, ends, load weights)`` arrays, built once."""
        cached = getattr(self, "_load_support_arrays", None)
        if cached is None:
            cached = (
                np.array([b.start_ns for b in self.bursts], dtype=np.float64),
                np.array([b.end_ns for b in self.bursts], dtype=np.float64),
                np.array(
                    [
                        KIND_PROFILES[b.kind].cpu_load * b.intensity
                        for b in self.bursts
                    ],
                    dtype=np.float64,
                ),
            )
            self._load_support_arrays = cached
        return cached

    def load_at_array(self, t_ns: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`load_at` for an array of sample times."""
        t = np.asarray(t_ns, dtype=np.float64)
        if not self.bursts:
            return np.zeros(t.shape, dtype=np.float64)
        starts, ends, weights = self._load_support()
        active = (t[..., None] >= starts) & (t[..., None] < ends)
        return np.minimum(active @ weights, 1.0)

    def occupancy_curve(
        self,
        step_ns: int = 10 * MS,
        rise_tau_ns: float = 150 * MS,
        decay_tau_ns: float = 1.2 * SEC,
    ) -> tuple[np.ndarray, np.ndarray]:
        """LLC occupancy in [0, 1] over time, from MEMORY/RENDER bursts.

        Occupancy relaxes exponentially toward the current memory demand:
        quickly while the victim is streaming data in, slowly (competing
        processes, attacker sweeps) once the burst ends.
        """
        times = np.arange(0, self.horizon_ns, step_ns, dtype=np.float64)
        demand = np.zeros_like(times)
        for burst in self.bursts:
            if burst.kind not in (BurstKind.MEMORY, BurstKind.RENDER):
                continue
            weight = 1.0 if burst.kind is BurstKind.MEMORY else 0.45
            mask = (times >= burst.start_ns) & (times < burst.end_ns)
            demand[mask] = np.maximum(demand[mask], weight * burst.intensity)
        # The relaxation is evaluated one constant-demand segment at a
        # time: within a segment the level approaches the target
        # monotonically, so the time constant never switches mid-segment
        # and the recurrence has the closed form
        # ``level(k) = target + (level0 - target) * exp(-k * step / tau)``.
        occupancy = np.zeros_like(times)
        segment_starts = np.flatnonzero(
            np.concatenate(([True], demand[1:] != demand[:-1]))
        )
        bounds = np.append(segment_starts, len(demand))
        level = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            target = float(demand[lo])
            tau = rise_tau_ns if target > level else decay_tau_ns
            relax = np.exp(-step_ns * np.arange(1, hi - lo + 1) / tau)
            occupancy[lo:hi] = target + (level - target) * relax
            level = float(occupancy[hi - 1])
        return times, occupancy


def merge_timelines(
    timelines: Iterable[ActivityTimeline], horizon_ns: int | None = None
) -> ActivityTimeline:
    """Overlay several timelines (e.g. a website plus background apps)."""
    timelines = list(timelines)
    if not timelines:
        raise ValueError("cannot merge zero timelines")
    horizon = horizon_ns if horizon_ns is not None else max(t.horizon_ns for t in timelines)
    bursts: list[ActivityBurst] = []
    for timeline in timelines:
        bursts.extend(timeline.bursts)
    return ActivityTimeline(bursts, horizon)
