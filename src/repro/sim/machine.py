"""Machine assembly: victim activity in, per-core interrupt timelines out.

``InterruptSynthesizer`` is the heart of the simulator.  Given a victim
:class:`~repro.workload.phases.ActivityTimeline` and a machine
configuration it generates every interrupt the machine would handle:

* per-core scheduler timer ticks,
* device IRQs for each activity burst, routed by the configured policy,
* deferred softirqs / IRQ work that piggyback near the triggering IRQ,
  placed wherever the kernel happens to process them (non-movable),
* rescheduling IPIs and broadcast TLB shootdowns from compute phases,
* load-driven timer-tick softirq work on every core,
* unrelated background device IRQs,
* scheduler contention slices (when the attacker is not pinned), and
* any extra injected batches (the §6.2 spurious-interrupt defense).

The result, a :class:`MachineRun`, carries one
:class:`~repro.sim.timeline.CoreTimeline` per core plus the DVFS
frequency schedule and the LLC occupancy curve — everything the
attackers and the kernel tracer observe.  Every core's interrupts are
drawn during synthesis, but only the attacker's timeline is assembled
there; the others are assembled the first time something reads them
(the kernel tracer, the keystroke and analysis helpers), because trace
collection never does.  A burst routed to several cores is likewise
split per core only when that core is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro import obs
from repro.sim.events import MS, SEC
from repro.sim.frequency import FrequencyConfig, FrequencyTrace, TurboGovernor
from repro.sim.interrupts import (
    HandlerLatencyModel,
    InterruptBatch,
    InterruptType,
)
from repro.sim.routing import (
    AffinitySourceRouting,
    PinnedRouting,
    RoutingPolicy,
    SoftirqPlacement,
)
from repro.sim.scheduler import SchedulerConfig, contention_batch
from repro.sim.timeline import CoreTimeline
from repro.sim.vm import BARE_METAL, VmConfig
from repro.workload.browser import LINUX, OperatingSystem
from repro.workload.phases import (
    KIND_PROFILES,
    ActivityBurst,
    ActivityTimeline,
    BurstKind,
)
from repro.workload.website import SiteStyle

#: Burst kind -> (device IRQ type, deferred softirq type).
_KIND_IRQS: dict[BurstKind, tuple[Optional[InterruptType], Optional[InterruptType]]] = {
    BurstKind.NETWORK: (InterruptType.NETWORK_RX, InterruptType.SOFTIRQ_NET_RX),
    BurstKind.RENDER: (InterruptType.GRAPHICS, InterruptType.IRQ_WORK),
    BurstKind.COMPUTE: (None, None),  # compute emits IPIs, handled separately
    BurstKind.MEMORY: (None, None),
    BurstKind.DISK: (InterruptType.DISK, InterruptType.SOFTIRQ_TASKLET),
    BurstKind.INPUT: (InterruptType.KEYBOARD, None),
}

#: TLB shootdowns accompany rescheduling activity (observed in §5.2:
#: "rescheduling interrupts ... often occur alongside TLB shootdowns").
_TLB_FRACTION_OF_RESCHED = 0.45
#: Deferred work runs shortly after its trigger (next tick or wakeup).
_DEFERRED_DELAY_MEAN_NS = 0.5 * MS
#: Probability a deferred item runs inside the next timer tick on its
#: core (vs an immediate wakeup).  Piggybacked items merge into the
#: tick's execution gap, which is why Fig 6's IRQ-work spike aligns
#: with the timer-interrupt spike.  IRQ work cannot fire on its own at
#: all, so it snaps almost always.
_DEFERRED_TICK_SNAP_PROBABILITY = 0.7
_IRQ_WORK_TICK_SNAP_PROBABILITY = 0.95
#: Softirq-timer work per tick grows with system load (calibrated).
_TICK_WORK_LOAD_FACTOR = 14.0
#: Global rate multiplier applied to burst-driven interrupts (calibrated
#: so full-intensity overlapping bursts steal ~15-20 % of a core).
_BURST_RATE_SCALE = 2.0

#: Rate of Turbo Boost transition stalls per core when enabled.
_TURBO_ARTIFACT_RATE_HZ = 220.0

#: Stable interrupt-type ordering for grouped duration sampling: batched
#: generation draws one latency sample per *type* rather than per burst,
#: and the groups must be visited in a deterministic order.
_TYPE_ORDER: dict[InterruptType, int] = {t: i for i, t in enumerate(InterruptType)}

#: Attacker-observable cache occupancy (see _distort_occupancy): the
#: victim's nominal occupancy is capped by the sweeping attacker's own
#: re-claims (residency), scaled by a per-run gain, and buried in
#: ambient eviction noise from unrelated processes and prefetchers —
#: noise that exists regardless of the victim, which is why the cache
#: channel's SNR is poor (Takeaway 2).
_OCCUPANCY_RESIDENCY = 0.12
_OCCUPANCY_GAIN_SIGMA = 0.30
_OCCUPANCY_NOISE_SIGMA = 0.15
_OCCUPANCY_NOISE_SMOOTHING = 15



@dataclass(frozen=True)
class MachineConfig:
    """Static configuration of the simulated machine."""

    n_cores: int = 4
    os: OperatingSystem = LINUX
    frequency: FrequencyConfig = field(default_factory=FrequencyConfig)
    vm: VmConfig = BARE_METAL
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: Pin all movable IRQs to core 0 (Linux ``irqbalance``, Table 3).
    irqbalance: bool = False
    #: Pin attacker and victim to separate cores (``taskset``, Table 3).
    pin_cores: bool = False
    #: Model Intel Turbo Boost's unexplained execution stalls (paper
    #: footnote 4): gaps that correspond to no OS activity.  The paper
    #: runs with Turbo Boost *disabled* to get clean attribution, so the
    #: default is off.
    turbo_boost_artifacts: bool = False
    #: Core the attacker process runs on.
    attacker_core: int = 1

    def __post_init__(self) -> None:
        if self.n_cores < 2:
            raise ValueError("the co-located attack model needs >= 2 cores")
        if not 0 <= self.attacker_core < self.n_cores:
            raise ValueError(
                f"attacker core {self.attacker_core} out of range for {self.n_cores} cores"
            )

    def routing_policy(self) -> RoutingPolicy:
        """Movable-IRQ routing under this configuration."""
        if self.irqbalance:
            # Pin device IRQs to a housekeeping core that is not the
            # attacker's (core 0 by convention; the attacker uses core 1).
            target = 0 if self.attacker_core != 0 else 1
            return PinnedRouting(self.n_cores, target_core=target)
        return AffinitySourceRouting(self.n_cores)

    def with_isolation(self, **changes) -> "MachineConfig":
        """Copy with isolation-mechanism fields replaced."""
        return replace(self, **changes)


class _RoutedShare:
    """One core's part of a burst routed to several cores.

    Every core the burst reaches holds a share of one ``(itype, times,
    durations, targets, cause)`` record, and ``len`` is that core's event
    count; the core's events are cut out only when it is assembled.
    """

    __slots__ = ("record", "core", "count")

    def __init__(self, record: tuple, core: int, count: int):
        self.record = record
        self.core = core
        self.count = count

    def __len__(self) -> int:
        return self.count

    def batch(self) -> InterruptBatch:
        """This core's events as a batch, in the burst's order."""
        itype, times, durations, targets, cause = self.record
        mine = targets == self.core
        return InterruptBatch(itype, times[mine], durations[mine], cause=cause)


class _DeferredCores(Sequence):
    """Per-core timelines of one run, each assembled on first access.

    Reads like the list it replaces (``len``, iteration, negative
    indices, slices as lists) and pickles as that list with every core
    assembled, so a run returned from an engine worker arrives complete.
    A core's batches are dropped once its timeline exists; until then
    they must not be mutated.
    """

    def __init__(
        self,
        per_core: list[list],
        build: Callable[[list], CoreTimeline],
    ):
        self._pending: list[Optional[list]] = list(per_core)
        self._cores: list[Optional[CoreTimeline]] = [None] * len(per_core)
        self._build = build

    def __len__(self) -> int:
        return len(self._cores)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return self.assemble(range(len(self))[index])

    def assemble(self, i: int) -> CoreTimeline:
        """Core ``i``'s timeline, assembled on the first call."""
        core = self._cores[i]
        if core is None:
            core = self._cores[i] = self._build(self._pending[i])
            self._pending[i] = None
        return core

    def __reduce__(self):
        return list, (list(self),)


@dataclass
class MachineRun:
    """Everything observable from one simulated victim run.

    Occupancy is kept as two components: ``occupancy_victim`` is the
    victim's (residency-capped, gain-scaled) share of the LLC as a
    sweeping attacker can observe it; ``occupancy_ambient`` is eviction
    noise from unrelated processes and prefetchers — present regardless
    of the victim.  Noise countermeasures manipulate the two components
    differently (a cache-sweeping defender shrinks the victim's share
    while *raising* the ambient level).
    """

    cores: Sequence[CoreTimeline]
    frequency: FrequencyTrace
    occupancy_times: np.ndarray
    occupancy_victim: np.ndarray
    occupancy_ambient: np.ndarray
    config: MachineConfig
    timeline: ActivityTimeline

    @property
    def attacker_timeline(self) -> CoreTimeline:
        """Interrupt history of the attacker's core."""
        return self.cores[self.config.attacker_core]

    def occupancy_at(self, t_ns: np.ndarray | float) -> np.ndarray | float:
        """Observable LLC occupancy in [0, 1] at time(s) ``t_ns``."""
        victim, ambient = self.occupancy_components_at(t_ns)
        return np.clip(victim + ambient, 0.0, 1.0)

    def occupancy_components_at(
        self, t_ns: np.ndarray | float
    ) -> tuple[np.ndarray | float, np.ndarray | float]:
        """``(victim, ambient)`` occupancy components at ``t_ns``."""
        victim = np.interp(t_ns, self.occupancy_times, self.occupancy_victim)
        ambient = np.interp(t_ns, self.occupancy_times, self.occupancy_ambient)
        return victim, ambient


class InterruptSynthesizer:
    """Generates a :class:`MachineRun` from a victim activity timeline."""

    def __init__(self, config: MachineConfig):
        self.config = config
        platform = config.os.handler_cost_factor
        self.latency_model = HandlerLatencyModel(platform_factor=platform)
        self.softirq_placement = SoftirqPlacement(
            follow_probability=config.os.softirq_follow_probability
        )
        self._governor = TurboGovernor(config.frequency)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def synthesize(
        self,
        timeline: ActivityTimeline,
        style: SiteStyle | None = None,
        rng: np.random.Generator | None = None,
        extra_batches: Optional[Sequence[tuple[int, InterruptBatch]]] = None,
    ) -> MachineRun:
        """Simulate one victim run.

        ``rng`` is required: every interrupt the synthesizer emits must
        come from a caller-seeded stream so a trace stays a pure function
        of ``(spec, seed)``.  ``extra_batches`` is a list of ``(core,
        batch)`` pairs injected on top of workload-driven interrupts
        (used by noise defenses).
        """
        style = style or SiteStyle()
        if not isinstance(rng, np.random.Generator):
            raise TypeError(
                "synthesize() requires a seeded np.random.Generator (got "
                f"{type(rng).__name__}); derive one from the spec seed, e.g. "
                "np.random.default_rng(spec.seed)"
            )
        span = obs.span("sim.synthesize", horizon_ns=int(timeline.horizon_ns))
        with span:
            per_core: list[list[InterruptBatch]] = [
                [] for _ in range(self.config.n_cores)
            ]

            tick_period_ns = SEC / self.config.os.tick_hz
            tick_phases = rng.uniform(0, tick_period_ns, self.config.n_cores)
            self._add_timer_ticks(per_core, timeline, rng, tick_phases)
            self._add_burst_interrupts(per_core, timeline, style, rng, tick_phases)
            self._add_tick_work(per_core, timeline, rng, tick_phases)
            self._add_background(per_core, timeline.horizon_ns, rng)
            if self.config.turbo_boost_artifacts:
                self._add_turbo_artifacts(per_core, timeline, rng)
            if not self.config.pin_cores:
                batch = contention_batch(
                    timeline, self.config.scheduler, self.config.os.contention_scale, rng
                )
                per_core[self.config.attacker_core].append(batch)
            for core, batch in extra_batches or ():
                per_core[core].append(batch)

            n_events = sum(len(b) for batches in per_core for b in batches)
            obs.counter("sim.events_processed").inc(n_events)
            span.set(events=n_events)

            cores = self._assemble(per_core)
            frequency = self._governor.run(
                timeline.load_at_array, timeline.horizon_ns, rng
            )
            occ_times, occ_nominal = timeline.occupancy_curve()
            occ_victim, occ_ambient = self._distort_occupancy(occ_nominal, rng)
        return MachineRun(
            cores=cores,
            frequency=frequency,
            occupancy_times=occ_times,
            occupancy_victim=occ_victim,
            occupancy_ambient=occ_ambient,
            config=self.config,
            timeline=timeline,
        )

    # ------------------------------------------------------------------
    # generation stages
    # ------------------------------------------------------------------

    def _distort_occupancy(
        self, occupancy: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Convert nominal victim occupancy into the attacker-observable one.

        Three distortions, all rooted in how a sweeping attacker actually
        measures the LLC: (1) the victim's residency is capped — the
        attacker's constant sweeps re-claim lines, so the victim never
        holds much of the cache; (2) a per-run gain (working-set size
        varies across loads); (3) ambient, temporally-correlated eviction
        noise from unrelated processes and prefetchers that is present
        *regardless of the victim*.  The ambient noise does not shrink
        when the victim's signal does, which is what makes the coarse
        (0..~32 counts) cache channel far less reliable than the
        fine-grained interrupt channel — the paper's central observation.
        """
        gain = rng.lognormal(0.0, _OCCUPANCY_GAIN_SIGMA)
        white = rng.normal(0.0, _OCCUPANCY_NOISE_SIGMA, len(occupancy))
        kernel = np.ones(_OCCUPANCY_NOISE_SMOOTHING) / _OCCUPANCY_NOISE_SMOOTHING
        if len(white) >= len(kernel):
            ambient = np.abs(np.convolve(white, kernel, mode="same"))
        else:
            # mode="same" returns as many samples as the longer input, so a
            # run shorter than the kernel takes the centred slice itself.
            offset = (len(kernel) - 1) // 2
            ambient = np.abs(np.convolve(white, kernel)[offset : offset + len(white)])
        victim = np.clip(_OCCUPANCY_RESIDENCY * occupancy * gain, 0.0, 1.0)
        return victim, ambient

    def _assemble(self, per_core: list[list]) -> Sequence[CoreTimeline]:
        """The run's cores: the attacker's assembled now, the rest on first read."""
        cores = _DeferredCores(per_core, self._build_core)
        cores.assemble(self.config.attacker_core)
        return cores

    def _build_core(self, batches: list) -> CoreTimeline:
        batches = [b.batch() if isinstance(b, _RoutedShare) else b for b in batches]
        if self.config.vm.enabled:
            batches = [
                InterruptBatch(
                    itype=b.itype,
                    times=b.times,
                    durations=self.config.vm.transform_durations(b.durations),
                    cause=b.cause,
                )
                for b in batches
            ]
        return CoreTimeline.from_batches(batches)

    def _next_tick(
        self, t: np.ndarray, core: np.ndarray, tick_phases: np.ndarray
    ) -> np.ndarray:
        """Time of the next timer tick at or after ``t`` on each core."""
        period_ns = SEC / self.config.os.tick_hz
        phase = tick_phases[core]
        return phase + np.ceil(np.maximum(t - phase, 0.0) / period_ns) * period_ns

    def _add_timer_ticks(
        self,
        per_core: list[list[InterruptBatch]],
        timeline: ActivityTimeline,
        rng: np.random.Generator,
        tick_phases: np.ndarray,
    ) -> None:
        period_ns = SEC / self.config.os.tick_hz
        for core in range(self.config.n_cores):
            phase = tick_phases[core]
            times = np.arange(phase, timeline.horizon_ns, period_ns, dtype=np.float64)
            durations = self.latency_model.sample(InterruptType.TIMER, rng, len(times))
            per_core[core].append(
                InterruptBatch(InterruptType.TIMER, times, durations, cause="tick")
            )

    def _poisson_times_batch(
        self,
        bursts: Sequence[ActivityBurst],
        rates_hz: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Poisson arrival times within many bursts, honouring their
        micro-structure.

        With ``ripple_hz`` set, a burst's arrivals concentrate in the
        on-phase of an on/off pulse train (packet trains, frame
        cadence); the mean rate over the burst is unchanged.  Returns
        ``(times, owners)`` where ``owners[i]`` indexes the burst each
        arrival belongs to.  Counts, ripple windows and offsets for
        every burst come from single vectorized draws (a homogeneous
        burst is one full-duty ripple window).
        """
        if not bursts:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        durations = np.array([b.duration_ns for b in bursts], dtype=np.float64)
        starts = np.array([b.start_ns for b in bursts], dtype=np.float64)
        ripple = np.array([b.ripple_hz for b in bursts], dtype=np.float64)
        duty = np.array([b.duty for b in bursts], dtype=np.float64)
        rippled = ripple > 0
        period = np.where(rippled, SEC / np.where(rippled, ripple, 1.0), durations)
        n_windows = np.maximum((durations / period).astype(np.int64), 1)
        on_len = np.where(rippled, duty * period, durations)
        counts = rng.poisson(np.asarray(rates_hz, dtype=np.float64) * durations / SEC)
        owners = np.repeat(np.arange(len(bursts)), counts)
        if not len(owners):
            return np.empty(0, dtype=np.float64), owners
        # Window draws use one scalar-bound call per multi-window burst:
        # scalar-bound integer generation is several times faster than the
        # per-element array-bound path, and single-window bursts need no
        # draw at all (the window is always 0).
        window = np.zeros(len(owners), dtype=np.float64)
        bounds = np.searchsorted(owners, np.arange(len(bursts) + 1))
        for i in range(len(bursts)):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi > lo and n_windows[i] > 1:
                window[lo:hi] = rng.integers(0, n_windows[i], hi - lo)
        offset = rng.random(len(owners))
        offset *= on_len[owners]
        # Build arrival times in place on the window array (owned here).
        times = window
        times *= period[owners]
        times += starts[owners]
        times += offset
        if rippled.any():
            np.clip(times, starts[owners], starts[owners] + durations[owners], out=times)
        return times, owners

    def _sample_durations_grouped(
        self,
        burst_types: Sequence[Optional[InterruptType]],
        owners: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Handler durations for ``owners``-indexed arrivals, one latency
        draw per distinct interrupt type (visited in enum order).

        ``owners`` is sorted, so each burst occupies one contiguous slice;
        a type's arrivals are the concatenation of its bursts' slices, and
        one batched draw per type is split across them in order.
        """
        durations = np.empty(len(owners), dtype=np.float64)
        bounds = np.searchsorted(owners, np.arange(len(burst_types) + 1))
        slices_by_type: dict[InterruptType, list[tuple[int, int]]] = {}
        for i, itype in enumerate(burst_types):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if itype is not None and hi > lo:
                slices_by_type.setdefault(itype, []).append((lo, hi))
        for itype in sorted(slices_by_type, key=_TYPE_ORDER.__getitem__):
            slices = slices_by_type[itype]
            draws = self.latency_model.sample(
                itype, rng, sum(hi - lo for lo, hi in slices)
            )
            offset = 0
            for lo, hi in slices:
                durations[lo:hi] = draws[offset : offset + (hi - lo)]
                offset += hi - lo
        return durations

    def _add_burst_interrupts(
        self,
        per_core: list[list[InterruptBatch]],
        timeline: ActivityTimeline,
        style: SiteStyle,
        rng: np.random.Generator,
        tick_phases: np.ndarray,
    ) -> None:
        """Workload-driven interrupts for every burst, generated batched.

        Device bursts and compute bursts are partitioned once; all RNG
        work (arrival counts and times, routing spreads, handler
        durations, deferred-work placement) is drawn across bursts in
        vectorized batches.  Per-burst python work shrinks to routing and
        the final per-(burst, core) appends, which preserve each burst's
        ``source`` for tracer attribution.
        """
        device_bursts = [
            b
            for b in timeline
            if b.kind is not BurstKind.COMPUTE and _KIND_IRQS[b.kind][0] is not None
        ]
        if device_bursts:
            self._add_device_irqs(
                per_core, device_bursts, style, rng, tick_phases
            )
        self._add_compute_ipis(
            per_core, timeline.of_kind(BurstKind.COMPUTE), style, rng
        )

    def _add_device_irqs(
        self,
        per_core: list[list[InterruptBatch]],
        bursts: Sequence[ActivityBurst],
        style: SiteStyle,
        rng: np.random.Generator,
        tick_phases: np.ndarray,
    ) -> None:
        routing = self.config.routing_policy()
        rates = np.array(
            [
                KIND_PROFILES[b.kind].irq_rate_hz * b.intensity * _BURST_RATE_SCALE
                for b in bursts
            ]
        )
        times, owners = self._poisson_times_batch(bursts, rates, rng)
        if not len(times):
            return
        # ``owners`` is sorted by construction (np.repeat), so each
        # burst's arrivals form a contiguous slice — no boolean masks.
        bounds = np.searchsorted(owners, np.arange(len(bursts) + 1))
        targets = np.empty(len(times), dtype=np.int64)
        for i, burst in enumerate(bursts):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi > lo:
                targets[lo:hi] = routing.route_source(burst.source, hi - lo, rng)
        device_types = [_KIND_IRQS[b.kind][0] for b in bursts]
        durations = self._sample_durations_grouped(device_types, owners, rng)
        for i, burst in enumerate(bursts):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi > lo:
                self._scatter(
                    per_core,
                    device_types[i],
                    times[lo:hi],
                    durations[lo:hi],
                    targets[lo:hi],
                    burst.source,
                )
        self._add_deferred(
            per_core, bursts, style, times, owners, targets, rng, tick_phases
        )

    def _scatter(
        self,
        per_core: list[list],
        itype: InterruptType,
        times: np.ndarray,
        durations: np.ndarray,
        targets: np.ndarray,
        cause: str,
    ) -> None:
        """Hand one burst's events to the cores in ``targets``.

        A burst on one core (affinity and pinned routing) is appended
        whole; a burst on several leaves each of them a
        :class:`_RoutedShare`, so no core is split before it is read.
        """
        if not len(targets):
            return
        counts = np.bincount(targets)
        cores = np.flatnonzero(counts).tolist()
        if len(cores) == 1:
            per_core[cores[0]].append(InterruptBatch(itype, times, durations, cause=cause))
            return
        record = (itype, times, durations, targets, cause)
        for core in cores:
            per_core[core].append(_RoutedShare(record, core, int(counts[core])))

    def _add_deferred(
        self,
        per_core: list[list[InterruptBatch]],
        bursts: Sequence[ActivityBurst],
        style: SiteStyle,
        trigger_times: np.ndarray,
        owners: np.ndarray,
        trigger_cores: np.ndarray,
        rng: np.random.Generator,
        tick_phases: np.ndarray,
    ) -> None:
        """Softirqs / IRQ work piggybacking on the device IRQs of all bursts."""
        deferred_types = [_KIND_IRQS[b.kind][1] for b in bursts]
        profiles = [KIND_PROFILES[b.kind] for b in bursts]
        coalescing = np.array(
            [
                style.net_coalescing if t is InterruptType.SOFTIRQ_NET_RX else 1.0
                for t in deferred_types
            ]
        )
        keep_probability = np.array(
            [
                0.0 if t is None else min(p.deferred_per_irq / c, 1.0)
                for t, p, c in zip(deferred_types, profiles, coalescing)
            ]
        )
        keep = rng.random(len(trigger_times)) < keep_probability[owners]
        if not keep.any():
            return
        deferred_owners = owners[keep]
        times = trigger_times[keep]
        times += rng.exponential(_DEFERRED_DELAY_MEAN_NS, len(times))
        cores = self.softirq_placement.place(
            trigger_cores[keep], self.config.n_cores, rng
        )
        # Most deferred items drain inside the next timer tick on their
        # core; the rest run on an immediate wakeup.
        snap_probability = np.array(
            [
                _IRQ_WORK_TICK_SNAP_PROBABILITY
                if t is InterruptType.IRQ_WORK
                else _DEFERRED_TICK_SNAP_PROBABILITY
                for t in deferred_types
            ]
        )
        snap = rng.random(len(times)) < snap_probability[deferred_owners]
        times[snap] = self._next_tick(times[snap], cores[snap], tick_phases)
        durations = self._sample_durations_grouped(deferred_types, deferred_owners, rng)
        # Heavier bursts defer more work per softirq -> longer handlers.
        # IRQ work is exempt: it only queues/kicks off the deferred
        # operation, so its own handler stays short (Fig 6).
        load_stretch = np.array(
            [
                1.0
                if t is None or t is InterruptType.IRQ_WORK
                else 1.0 + p.duration_load_factor * b.intensity * c
                for t, p, b, c in zip(deferred_types, profiles, bursts, coalescing)
            ]
        )
        durations *= load_stretch[deferred_owners]
        bounds = np.searchsorted(deferred_owners, np.arange(len(bursts) + 1))
        for i, burst in enumerate(bursts):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi > lo:
                self._scatter(
                    per_core,
                    deferred_types[i],
                    times[lo:hi],
                    durations[lo:hi],
                    cores[lo:hi],
                    f"{burst.source}/deferred",
                )

    def _add_compute_ipis(
        self,
        per_core: list[list[InterruptBatch]],
        bursts: Sequence[ActivityBurst],
        style: SiteStyle,
        rng: np.random.Generator,
    ) -> None:
        """Rescheduling IPIs and TLB shootdowns for all compute bursts."""
        if not bursts:
            return
        profile = KIND_PROFILES[BurstKind.COMPUTE]
        intensities = np.array([b.intensity for b in bursts])
        rates = (
            profile.irq_rate_hz
            * intensities
            * style.resched_weight
            * _BURST_RATE_SCALE
        )
        resched_times, owners = self._poisson_times_batch(bursts, rates, rng)
        if len(resched_times):
            targets = rng.integers(0, self.config.n_cores, len(resched_times))
            durations = self.latency_model.sample(
                InterruptType.RESCHED_IPI, rng, len(resched_times)
            )
            stretch = 1.0 + profile.duration_load_factor * intensities
            durations *= stretch[owners]
            bounds = np.searchsorted(owners, np.arange(len(bursts) + 1))
            for i, burst in enumerate(bursts):
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                if hi > lo:
                    self._scatter(
                        per_core,
                        InterruptType.RESCHED_IPI,
                        resched_times[lo:hi],
                        durations[lo:hi],
                        targets[lo:hi],
                        burst.source,
                    )
        # TLB shootdowns broadcast to every core.
        tlb_times, tlb_owners = self._poisson_times_batch(
            bursts, rates * _TLB_FRACTION_OF_RESCHED, rng
        )
        if len(tlb_times):
            tlb_bounds = np.searchsorted(tlb_owners, np.arange(len(bursts) + 1))
            for core in range(self.config.n_cores):
                durations = self.latency_model.sample(
                    InterruptType.TLB_SHOOTDOWN, rng, len(tlb_times)
                )
                for i, burst in enumerate(bursts):
                    lo, hi = int(tlb_bounds[i]), int(tlb_bounds[i + 1])
                    if hi > lo:
                        per_core[core].append(
                            InterruptBatch(
                                InterruptType.TLB_SHOOTDOWN,
                                tlb_times[lo:hi],
                                durations[lo:hi],
                                cause=f"{burst.source}/tlb",
                            )
                        )

    def _add_tick_work(
        self,
        per_core: list[list[InterruptBatch]],
        timeline: ActivityTimeline,
        rng: np.random.Generator,
        tick_phases: np.ndarray,
    ) -> None:
        """Load-proportional softirq work attached to timer ticks.

        The kernel drains deferred timer work on every tick; under load
        this work grows, stretching the gap each tick causes on *every*
        core — a purely non-movable leakage path.  Arrivals coincide
        with the core's tick times so the work merges into the tick's
        execution gap.
        """
        period_ns = SEC / self.config.os.tick_hz
        for core in range(self.config.n_cores):
            phase = tick_phases[core]
            ticks = np.arange(phase, timeline.horizon_ns, period_ns, dtype=np.float64)
            loads = timeline.load_at_array(ticks)
            active = loads > 0.02
            if not active.any():
                continue
            times = ticks[active]
            durations = self.latency_model.sample(
                InterruptType.SOFTIRQ_TIMER, rng, len(times)
            )
            durations = durations * (1.0 + _TICK_WORK_LOAD_FACTOR * loads[active])
            per_core[core].append(
                InterruptBatch(
                    InterruptType.SOFTIRQ_TIMER, times, durations, cause="tick_work"
                )
            )

    def _add_turbo_artifacts(
        self,
        per_core: list[list[InterruptBatch]],
        timeline: ActivityTimeline,
        rng: np.random.Generator,
    ) -> None:
        """Turbo-transition stalls on every core (footnote 4).

        Frequency transitions cluster around load changes; the stalls
        are user-visible execution gaps that no kernel probe explains.
        """
        for core in range(self.config.n_cores):
            expected = _TURBO_ARTIFACT_RATE_HZ * timeline.horizon_ns / SEC
            count = rng.poisson(expected)
            if not count:
                continue
            times = np.sort(rng.uniform(0, timeline.horizon_ns, count))
            durations = self.latency_model.sample(InterruptType.UNKNOWN, rng, count)
            per_core[core].append(
                InterruptBatch(
                    InterruptType.UNKNOWN, times, durations, cause="turbo_boost"
                )
            )

    def _add_background(
        self,
        per_core: list[list[InterruptBatch]],
        horizon_ns: int,
        rng: np.random.Generator,
    ) -> None:
        routing = self.config.routing_policy()
        sources = (
            ("system/bg-net", InterruptType.NETWORK_RX, 0.45),
            ("system/bg-disk", InterruptType.DISK, 0.35),
            ("system/bg-usb", InterruptType.KEYBOARD, 0.20),
        )
        for source, itype, share in sources:
            expected = self.config.os.background_irq_hz * share * horizon_ns / SEC
            count = rng.poisson(expected)
            if not count:
                continue
            times = np.sort(rng.uniform(0, horizon_ns, count))
            targets = routing.route_source(source, count, rng)
            durations = self.latency_model.sample(itype, rng, count)
            self._scatter(per_core, itype, times, durations, targets, source)
