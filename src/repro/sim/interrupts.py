"""Interrupt taxonomy and handler-latency models.

The paper (§2.2, §5.3) distinguishes interrupts by how they are triggered
and whether the OS lets users move them between cores:

* **Device IRQs** (network RX, graphics, disk, keyboard) — *movable*:
  ``irqbalance`` can pin them away from the attacker's core.
* **Local interrupts** (the periodic scheduler timer tick) — per-core,
  not movable.
* **Inter-processor interrupts** (rescheduling IPIs, TLB shootdowns) —
  raised by remote cores, not movable.
* **Softirqs / IRQ work** — Linux software constructs that run deferred
  device work, typically piggybacking on a timer tick; Linux offers no
  interface to steer them (*non-movable*), which is the security gap the
  paper highlights (Takeaway 5).

Handler latencies follow per-type lognormal distributions with a hard
floor of ~1.5 µs that models the context-switch cost of Meltdown-era
mitigations (Fig 6: "all of the gaps associated with these interrupts are
longer than 1.5 µs").  The constants below were calibrated so that the
gap-length histograms regenerated by ``experiments.fig6`` match the
paper's 1.5–10 µs band with the published per-type shapes (timer spike at
~5.5 µs mirrored by IRQ work, broad softirq mass, shorter network RX).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np

from repro.sim.events import US


class InterruptType(enum.Enum):
    """Every interrupt type exercised by the reproduction."""

    TIMER = "timer"
    NETWORK_RX = "network_rx"
    GRAPHICS = "graphics"
    DISK = "disk"
    KEYBOARD = "keyboard"
    SOFTIRQ_NET_RX = "softirq_net_rx"
    SOFTIRQ_TIMER = "softirq_timer"
    SOFTIRQ_TASKLET = "softirq_tasklet"
    IRQ_WORK = "irq_work"
    RESCHED_IPI = "resched_ipi"
    TLB_SHOOTDOWN = "tlb_shootdown"
    SPURIOUS = "spurious"  # injected by the §6.2 noise defense
    #: Execution stalls with no corresponding kernel activity — observed
    #: by the paper with Intel Turbo Boost enabled (footnote 4, left as
    #: future work there).  Modeled as frequency-transition stalls; the
    #: kernel tracer cannot see them (there is nothing to probe).
    UNKNOWN = "unknown"


#: Device IRQs that irqbalance can steer to a chosen core (paper §5.1).
MOVABLE_TYPES = frozenset(
    {
        InterruptType.NETWORK_RX,
        InterruptType.GRAPHICS,
        InterruptType.DISK,
        InterruptType.KEYBOARD,
    }
)

#: Types that execute on every core / wherever the kernel chooses; the
#: OS offers no user interface to move them away from an attacker.
NON_MOVABLE_TYPES = frozenset(t for t in InterruptType if t not in MOVABLE_TYPES)

#: Softirq-family types, which never fire on their own: they run while an
#: enclosing timer tick (or device IRQ) is already being handled, so the
#: user-space gap they produce includes the host interrupt's latency.
PIGGYBACK_TYPES = frozenset(
    {
        InterruptType.SOFTIRQ_NET_RX,
        InterruptType.SOFTIRQ_TIMER,
        InterruptType.SOFTIRQ_TASKLET,
        InterruptType.IRQ_WORK,
    }
)


@dataclass(frozen=True)
class LatencySpec:
    """Lognormal handler-latency parameters for one interrupt type.

    ``median_ns`` is the latency median, ``sigma`` the lognormal shape, and
    ``floor_ns`` the minimum imposed by kernel-entry cost (Meltdown/KPTI
    trampolines make every user→kernel transition expensive, Fig 6).
    """

    median_ns: float
    sigma: float
    floor_ns: float = 1_500.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` handler latencies in nanoseconds."""
        draws = rng.lognormal(mean=np.log(self.median_ns), sigma=self.sigma, size=size)
        return np.maximum(draws, self.floor_ns, out=draws)


#: Calibrated per-type latency models (see module docstring and DESIGN.md §6).
DEFAULT_LATENCIES: Dict[InterruptType, LatencySpec] = {
    InterruptType.TIMER: LatencySpec(median_ns=3_800.0, sigma=0.18),
    InterruptType.NETWORK_RX: LatencySpec(median_ns=2_400.0, sigma=0.25),
    InterruptType.GRAPHICS: LatencySpec(median_ns=2_900.0, sigma=0.30),
    InterruptType.DISK: LatencySpec(median_ns=2_600.0, sigma=0.30),
    InterruptType.KEYBOARD: LatencySpec(median_ns=2_200.0, sigma=0.20),
    # Softirqs defer long-running device work, so their own latency is both
    # larger and much more spread out than first-level handlers.
    InterruptType.SOFTIRQ_NET_RX: LatencySpec(median_ns=2_800.0, sigma=0.55),
    InterruptType.SOFTIRQ_TIMER: LatencySpec(median_ns=1_900.0, sigma=0.45),
    InterruptType.SOFTIRQ_TASKLET: LatencySpec(median_ns=2_300.0, sigma=0.50),
    # IRQ work itself is brief (it queues/kicks off deferred operations);
    # the long gap it appears in comes from the timer tick hosting it.
    InterruptType.IRQ_WORK: LatencySpec(median_ns=1_550.0, sigma=0.12),
    InterruptType.RESCHED_IPI: LatencySpec(median_ns=2_100.0, sigma=0.25),
    InterruptType.TLB_SHOOTDOWN: LatencySpec(median_ns=2_500.0, sigma=0.30),
    InterruptType.SPURIOUS: LatencySpec(median_ns=2_600.0, sigma=0.35),
    # Turbo-transition stalls: no kernel entry, so no Meltdown floor.
    InterruptType.UNKNOWN: LatencySpec(median_ns=9_000.0, sigma=0.6, floor_ns=300.0),
}


class HandlerLatencyModel:
    """Samples handler durations for batches of interrupts.

    A multiplicative platform factor models OS differences (e.g. Windows'
    heavier DPC path) and the VM amplification of §5.1, where a routed
    interrupt must be processed by both the host and the guest OS.
    """

    def __init__(
        self,
        specs: Dict[InterruptType, LatencySpec] | None = None,
        platform_factor: float = 1.0,
    ):
        if platform_factor <= 0:
            raise ValueError(f"platform_factor must be positive, got {platform_factor}")
        self._specs = dict(DEFAULT_LATENCIES if specs is None else specs)
        self.platform_factor = float(platform_factor)

    def spec_for(self, itype: InterruptType) -> LatencySpec:
        """The latency spec used for ``itype``."""
        return self._specs[itype]

    def sample(
        self, itype: InterruptType, rng: np.random.Generator, size: int
    ) -> np.ndarray:
        """Sample ``size`` handler durations (ns) for one interrupt type."""
        draws = self._specs[itype].sample(rng, size)
        if self.platform_factor == 1.0:
            return draws
        return draws * self.platform_factor

    def scaled(self, factor: float) -> "HandlerLatencyModel":
        """A copy with the platform factor multiplied by ``factor``."""
        return HandlerLatencyModel(self._specs, self.platform_factor * factor)


@dataclass
class InterruptBatch:
    """A vectorized batch of interrupts targeted at one core.

    ``times`` are arrival times (ns), ``durations`` handler times (ns), and
    ``cause`` a free-form label used by the tracer for attribution (e.g.
    the workload burst that produced the batch).
    """

    itype: InterruptType
    times: np.ndarray
    durations: np.ndarray
    cause: str = "system"

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.durations = np.asarray(self.durations, dtype=np.float64)
        if self.times.shape != self.durations.shape:
            raise ValueError(
                f"times and durations must align: {self.times.shape} vs {self.durations.shape}"
            )
        if self.times.ndim != 1:
            raise ValueError("interrupt batches must be one-dimensional")
        if len(self.durations) and float(self.durations.min()) < 0:
            raise ValueError("handler durations cannot be negative")

    def __len__(self) -> int:
        return len(self.times)


#: Largest array length whose packed sort key ``group * n + index`` is
#: representable: keys reach at most ``n² - 1``, which must fit int64
#: (``isqrt(2**63 - 1)`` = 3_037_000_499).  The int32 fast path below
#: caps itself at ``n < 46_341`` by the same argument.
_MAX_STABLE_SORT_N = 3_037_000_499


def _stable_time_order(times: np.ndarray) -> np.ndarray:
    """Indices sorting ``times`` ascending, ties in original order.

    Equivalent to ``np.argsort(times, kind="stable")`` but substantially
    faster on large float arrays: an unstable sort first, then a second
    integer sort on a unique ``(equal-time group, original index)``
    composite key — restricted to the elements that actually sit in tied
    runs — to put tied arrivals back into append order.  Ties are
    common — deferred work snaps to exactly the hosting tick's arrival
    time — and their order is semantically meaningful (the tick must
    precede its piggybacked work), but they are still a minority of
    events, so the fix-up sort is much smaller than the primary one.
    """
    n = len(times)
    if n > _MAX_STABLE_SORT_N:
        raise ValueError(
            f"cannot stable-sort {n} interrupt arrivals: the composite "
            f"sort key group*n+index would overflow int64 beyond "
            f"n={_MAX_STABLE_SORT_N}; split the merge into smaller batches"
        )
    order = np.argsort(times)
    sorted_times = times[order]
    tie = sorted_times[1:] == sorted_times[:-1]
    if not tie.any():
        return order
    tied = np.concatenate(([False], tie)) | np.concatenate((tie, [False]))
    idx = np.flatnonzero(tied)
    sub = order[idx]
    tied_times = sorted_times[idx]
    # int32 keys sort measurably faster; fall back to int64 when
    # group * n + index could overflow 31 bits.
    key_dtype = np.int32 if n < 46_341 else np.int64
    group = np.cumsum(
        np.concatenate(
            ([0], (tied_times[1:] != tied_times[:-1]).astype(key_dtype))
        ),
        dtype=key_dtype,
    )
    order[idx] = sub[np.argsort(group * key_dtype(n) + sub.astype(key_dtype))]
    return order


def merge_batches(batches: Iterable[InterruptBatch]) -> tuple[np.ndarray, ...]:
    """Flatten batches into parallel arrays sorted by arrival time.

    Returns ``(times, durations, type_codes, cause_codes, cause_names)``
    where ``type_codes`` index into ``list(InterruptType)`` and
    ``cause_codes`` into ``cause_names``.
    """
    type_index = {t: i for i, t in enumerate(InterruptType)}
    times_parts: list[np.ndarray] = []
    dur_parts: list[np.ndarray] = []
    lengths: list[int] = []
    batch_types: list[int] = []
    batch_causes: list[int] = []
    cause_names: list[str] = []
    cause_index: dict[str, int] = {}
    for batch in batches:
        if not len(batch):
            continue
        if batch.cause not in cause_index:
            cause_index[batch.cause] = len(cause_names)
            cause_names.append(batch.cause)
        times_parts.append(batch.times)
        dur_parts.append(batch.durations)
        lengths.append(len(batch))
        batch_types.append(type_index[batch.itype])
        batch_causes.append(cause_index[batch.cause])
    if not times_parts:
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        return empty_f, empty_f.copy(), empty_i, empty_i.copy(), []
    times = np.concatenate(times_parts)
    order = _stable_time_order(times)
    type_codes = np.repeat(np.asarray(batch_types, dtype=np.int64), lengths)
    cause_codes = np.repeat(np.asarray(batch_causes, dtype=np.int64), lengths)
    return (
        times[order],
        np.concatenate(dur_parts)[order],
        type_codes[order],
        cause_codes[order],
        cause_names,
    )


#: Convenience: microsecond constant re-exported for callers building specs.
MICROSECOND_NS = US
