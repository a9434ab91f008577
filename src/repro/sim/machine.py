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
attackers and the kernel tracer observe.

Randomness comes from two kinds of stream.  The caller's stream draws
whatever can put work on another core: device-IRQ counts, times and
routing, which IRQs leave deferred work and where it runs, IPI times and
targets, TLB-shootdown times and background IRQs, then the governor and
the occupancy distortion.  One word of it seeds a stream per core
(``SeedSequence(word).spawn(n_cores)``), which draws what lands on that
core alone: its tick phase, tick and tick-work durations, contention
slices and turbo stalls, and the handler duration, deferred delay and
tick snap of each event routed to it.  Synthesis draws only the
attacker's core; the others are drawn and assembled the first time
something reads them (the kernel tracer, the keystroke and analysis
helpers), because trace collection never does.  A core's events do not
depend on which other cores were drawn, or in what order.
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

#: Unrelated background device IRQs: source, type and share of the
#: OS's background rate.
_BACKGROUND_SOURCES = (
    ("system/bg-net", InterruptType.NETWORK_RX, 0.45),
    ("system/bg-disk", InterruptType.DISK, 0.35),
    ("system/bg-usb", InterruptType.KEYBOARD, 0.20),
)

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


@dataclass(frozen=True)
class _Routed:
    """Events the shared stream routed to cores, per-core draws pending.

    ``owners[i]`` indexes the burst (or background source) event ``i``
    came from, whose interrupt type and cause are ``types[owner]`` and
    ``causes[owner]``; ``owners`` is sorted.  ``targets[i]`` is the
    event's core, or ``targets`` is None for a broadcast to every core.
    A core cuts its events out, and draws their handler durations from
    its own stream, only when it is assembled.  ``stretch`` scales a
    burst's durations; deferred work (``snap`` set) also draws a delay
    per event and joins the core's next tick with its burst's ``snap``
    probability.
    """

    times: np.ndarray
    owners: np.ndarray
    targets: Optional[np.ndarray]
    types: Sequence[Optional[InterruptType]]
    causes: Sequence[str]
    stretch: Optional[np.ndarray] = None
    snap: Optional[np.ndarray] = None


@dataclass
class _CorePart:
    """What core ``core`` still draws from its own stream.

    The stream is ``SeedSequence(entropy).spawn(n_cores)[core]``, a pure
    function of one word of the caller's stream, so a core's events do
    not depend on which other cores were drawn, or in what order.
    ``routed`` is the run's shared routing, one list for every core;
    ``extra`` are the injected batches that land here.
    """

    core: int
    entropy: int
    timeline: ActivityTimeline
    routed: list[_Routed]
    extra: list[InterruptBatch] = field(default_factory=list)

    def stream(self) -> np.random.Generator:
        """This core's generator (``spawn`` builds the same child)."""
        return np.random.default_rng(
            np.random.SeedSequence(self.entropy, spawn_key=(self.core,))
        )


class _DeferredCores(Sequence):
    """Per-core timelines of one run, each drawn and assembled on first access.

    Reads like the list it replaces (``len``, iteration, negative
    indices, slices as lists) and pickles as that list with every core
    assembled, so a run returned from an engine worker arrives complete.
    A core's part is dropped once its timeline exists; until then the
    arrays it shares with the run must not be mutated.
    """

    def __init__(
        self,
        parts: list[_CorePart],
        build: Callable[[_CorePart], CoreTimeline],
    ):
        self._pending: list[Optional[_CorePart]] = list(parts)
        self._cores: list[Optional[CoreTimeline]] = [None] * len(parts)
        self._build = build

    def __len__(self) -> int:
        return len(self._cores)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return self.assemble(range(len(self))[index])

    def assemble(self, i: int) -> CoreTimeline:
        """Core ``i``'s timeline, drawn and assembled on the first call."""
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
        of ``(spec, seed)``.  ``rng`` draws what can put work on another
        core (device-IRQ arrivals and routing, deferred-work keep and
        placement, IPI times and targets, shootdown times, background
        IRQs), then the governor and occupancy; one word of it seeds each
        core's own stream, which draws what lands on that core alone.
        Only the attacker's core is drawn here; the others are drawn when
        first read and never touch ``rng``.  ``extra_batches`` is a list
        of ``(core, batch)`` pairs injected on top of workload-driven
        interrupts (used by noise defenses).
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
            entropy = int(rng.integers(2**63))
            routed = self._route(timeline, style, rng)
            parts = [
                _CorePart(core, entropy, timeline, routed)
                for core in range(self.config.n_cores)
            ]
            for core, batch in extra_batches or ():
                parts[core].extra.append(batch)
            cores = self._assemble(parts)
            span.set(events=len(cores[self.config.attacker_core]))
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

    def _assemble(self, parts: list[_CorePart]) -> Sequence[CoreTimeline]:
        """The run's cores: the attacker's drawn now, the rest on first read."""
        cores = _DeferredCores(parts, self._build_part)
        cores.assemble(self.config.attacker_core)
        return cores

    def _build_part(self, part: _CorePart) -> CoreTimeline:
        """Draw one core's events on its own stream and assemble them."""
        batches = self._draw_core(part, part.stream())
        obs.counter("sim.events_processed").inc(sum(len(b) for b in batches))
        return self._build_core(batches)

    def _build_core(self, batches: list[InterruptBatch]) -> CoreTimeline:
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

    # -- the shared stream: what can reach several cores ----------------

    def _route(
        self,
        timeline: ActivityTimeline,
        style: SiteStyle,
        rng: np.random.Generator,
    ) -> list[_Routed]:
        """Every workload-driven and background event that can land on more
        than one core, with its times and cores drawn on the shared stream.

        Device bursts and compute bursts are partitioned once, and their
        arrivals, routing and deferred-work placement are drawn across
        bursts in vectorized batches.  The list is in the order each core
        appends its share: device IRQs, deferred work, rescheduling IPIs,
        TLB shootdowns, background IRQs.
        """
        device_bursts = [
            b
            for b in timeline
            if b.kind is not BurstKind.COMPUTE and _KIND_IRQS[b.kind][0] is not None
        ]
        routed: list[_Routed] = []
        if device_bursts:
            routed += self._route_device_irqs(device_bursts, style, rng)
        routed += self._route_compute_ipis(
            timeline.of_kind(BurstKind.COMPUTE), style, rng
        )
        routed += self._route_background(timeline.horizon_ns, rng)
        return routed

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

    def _route_device_irqs(
        self,
        bursts: Sequence[ActivityBurst],
        style: SiteStyle,
        rng: np.random.Generator,
    ) -> list[_Routed]:
        """Device IRQs of every burst, and the deferred work they leave."""
        routing = self.config.routing_policy()
        rates = np.array(
            [
                KIND_PROFILES[b.kind].irq_rate_hz * b.intensity * _BURST_RATE_SCALE
                for b in bursts
            ]
        )
        times, owners = self._poisson_times_batch(bursts, rates, rng)
        if not len(times):
            return []
        # ``owners`` is sorted by construction (np.repeat), so each
        # burst's arrivals form a contiguous slice — no boolean masks.
        bounds = np.searchsorted(owners, np.arange(len(bursts) + 1))
        targets = np.empty(len(times), dtype=np.int64)
        for i, burst in enumerate(bursts):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi > lo:
                targets[lo:hi] = routing.route_source(burst.source, hi - lo, rng)
        device = _Routed(
            times,
            owners,
            targets,
            [_KIND_IRQS[b.kind][0] for b in bursts],
            [b.source for b in bursts],
        )
        deferred = self._place_deferred(bursts, style, times, owners, targets, rng)
        return [device] if deferred is None else [device, deferred]

    def _place_deferred(
        self,
        bursts: Sequence[ActivityBurst],
        style: SiteStyle,
        trigger_times: np.ndarray,
        owners: np.ndarray,
        trigger_cores: np.ndarray,
        rng: np.random.Generator,
    ) -> Optional[_Routed]:
        """Softirqs / IRQ work piggybacking on the device IRQs of all
        bursts: which IRQs leave work, and the core it runs on."""
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
            return None
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
        return _Routed(
            trigger_times[keep],
            owners[keep],
            cores,
            deferred_types,
            [f"{b.source}/deferred" for b in bursts],
            stretch=load_stretch,
            snap=snap_probability,
        )

    def _route_compute_ipis(
        self,
        bursts: Sequence[ActivityBurst],
        style: SiteStyle,
        rng: np.random.Generator,
    ) -> list[_Routed]:
        """Rescheduling IPIs and TLB shootdowns for all compute bursts."""
        if not bursts:
            return []
        profile = KIND_PROFILES[BurstKind.COMPUTE]
        intensities = np.array([b.intensity for b in bursts])
        rates = (
            profile.irq_rate_hz
            * intensities
            * style.resched_weight
            * _BURST_RATE_SCALE
        )
        sources = [b.source for b in bursts]
        routed: list[_Routed] = []
        resched_times, owners = self._poisson_times_batch(bursts, rates, rng)
        if len(resched_times):
            targets = rng.integers(0, self.config.n_cores, len(resched_times))
            routed.append(
                _Routed(
                    resched_times,
                    owners,
                    targets,
                    [InterruptType.RESCHED_IPI] * len(bursts),
                    sources,
                    stretch=1.0 + profile.duration_load_factor * intensities,
                )
            )
        # TLB shootdowns broadcast to every core.
        tlb_times, tlb_owners = self._poisson_times_batch(
            bursts, rates * _TLB_FRACTION_OF_RESCHED, rng
        )
        if len(tlb_times):
            routed.append(
                _Routed(
                    tlb_times,
                    tlb_owners,
                    None,
                    [InterruptType.TLB_SHOOTDOWN] * len(bursts),
                    [f"{source}/tlb" for source in sources],
                )
            )
        return routed

    def _route_background(
        self, horizon_ns: int, rng: np.random.Generator
    ) -> list[_Routed]:
        """Unrelated device IRQs: a count, times and cores per source."""
        routing = self.config.routing_policy()
        times, owners, targets = [], [], []
        for k, (source, _, share) in enumerate(_BACKGROUND_SOURCES):
            expected = self.config.os.background_irq_hz * share * horizon_ns / SEC
            count = rng.poisson(expected)
            if not count:
                continue
            times.append(np.sort(rng.uniform(0, horizon_ns, count)))
            targets.append(routing.route_source(source, count, rng))
            owners.append(np.full(count, k, dtype=np.int64))
        if not times:
            return []
        return [
            _Routed(
                np.concatenate(times),
                np.concatenate(owners),
                np.concatenate(targets),
                [itype for _, itype, _ in _BACKGROUND_SOURCES],
                [source for source, _, _ in _BACKGROUND_SOURCES],
            )
        ]

    # -- one core's own stream ------------------------------------------

    def _draw_core(
        self, part: _CorePart, stream: np.random.Generator
    ) -> list[InterruptBatch]:
        """Core ``part.core``'s batches, every draw on ``stream``.

        In append (and draw) order: the core's timer ticks, their softirq
        work, its share of each routed record, its turbo stalls and, on
        the attacker's core, scheduler contention; then injected batches.
        """
        timeline = part.timeline
        period_ns = SEC / self.config.os.tick_hz
        phase = stream.uniform(0, period_ns)
        ticks = np.arange(phase, timeline.horizon_ns, period_ns, dtype=np.float64)
        durations = self.latency_model.sample(InterruptType.TIMER, stream, len(ticks))
        batches = [InterruptBatch(InterruptType.TIMER, ticks, durations, cause="tick")]
        batches += self._tick_work(ticks, timeline, stream)
        for routed in part.routed:
            batches += self._draw_routed(routed, part.core, stream, phase)
        if self.config.turbo_boost_artifacts:
            batches += self._turbo_artifacts(timeline.horizon_ns, stream)
        if not self.config.pin_cores and part.core == self.config.attacker_core:
            batches.append(
                contention_batch(
                    timeline,
                    self.config.scheduler,
                    self.config.os.contention_scale,
                    stream,
                )
            )
        return batches + part.extra

    def _next_tick(self, t: np.ndarray, phase: float) -> np.ndarray:
        """Time of the next timer tick at or after ``t`` on a core whose
        ticks start at ``phase``."""
        period_ns = SEC / self.config.os.tick_hz
        return phase + np.ceil(np.maximum(t - phase, 0.0) / period_ns) * period_ns

    def _tick_work(
        self,
        ticks: np.ndarray,
        timeline: ActivityTimeline,
        stream: np.random.Generator,
    ) -> list[InterruptBatch]:
        """Load-proportional softirq work attached to one core's ticks.

        The kernel drains deferred timer work on every tick; under load
        this work grows, stretching the gap each tick causes on *every*
        core — a purely non-movable leakage path.  Arrivals coincide
        with the core's tick times so the work merges into the tick's
        execution gap.
        """
        loads = timeline.load_at_array(ticks)
        active = loads > 0.02
        if not active.any():
            return []
        times = ticks[active]
        durations = self.latency_model.sample(
            InterruptType.SOFTIRQ_TIMER, stream, len(times)
        )
        durations = durations * (1.0 + _TICK_WORK_LOAD_FACTOR * loads[active])
        return [
            InterruptBatch(
                InterruptType.SOFTIRQ_TIMER, times, durations, cause="tick_work"
            )
        ]

    def _draw_routed(
        self,
        routed: _Routed,
        core: int,
        stream: np.random.Generator,
        phase: float,
    ) -> list[InterruptBatch]:
        """Core ``core``'s share of ``routed``, one batch per burst."""
        times, owners = routed.times, routed.owners
        if routed.targets is not None:
            mine = routed.targets == core
            times, owners = times[mine], owners[mine]
        if not len(owners):
            return []
        if routed.snap is not None:
            # Deferred work is always targeted, so ``times`` is a copy.
            times += stream.exponential(_DEFERRED_DELAY_MEAN_NS, len(times))
            snap = stream.random(len(times)) < routed.snap[owners]
            times[snap] = self._next_tick(times[snap], phase)
        runs = _owner_runs(owners)
        durations = self._sample_durations_grouped(routed.types, runs, len(owners), stream)
        if routed.stretch is not None:
            durations *= routed.stretch[owners]
        return [
            InterruptBatch(
                routed.types[owner],
                times[lo:hi],
                durations[lo:hi],
                cause=routed.causes[owner],
            )
            for owner, lo, hi in runs
        ]

    def _sample_durations_grouped(
        self,
        burst_types: Sequence[Optional[InterruptType]],
        runs: list[tuple[int, int, int]],
        n: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Handler durations for ``n`` arrivals whose bursts occupy the
        ``(owner, lo, hi)`` slices ``runs``, one latency draw per distinct
        interrupt type (visited in enum order).

        A type's arrivals are the concatenation of its bursts' slices, and
        one batched draw per type is split across them in order.
        """
        durations = np.empty(n, dtype=np.float64)
        slices_by_type: dict[InterruptType, list[tuple[int, int]]] = {}
        for owner, lo, hi in runs:
            itype = burst_types[owner]
            if itype is not None:
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

    def _turbo_artifacts(
        self, horizon_ns: int, stream: np.random.Generator
    ) -> list[InterruptBatch]:
        """Turbo-transition stalls on one core (footnote 4).

        Frequency transitions cluster around load changes; the stalls
        are user-visible execution gaps that no kernel probe explains.
        """
        count = stream.poisson(_TURBO_ARTIFACT_RATE_HZ * horizon_ns / SEC)
        if not count:
            return []
        times = np.sort(stream.uniform(0, horizon_ns, count))
        durations = self.latency_model.sample(InterruptType.UNKNOWN, stream, count)
        return [
            InterruptBatch(InterruptType.UNKNOWN, times, durations, cause="turbo_boost")
        ]


def _owner_runs(owners: np.ndarray) -> list[tuple[int, int, int]]:
    """``(owner, lo, hi)`` for each run of one value in sorted, non-empty
    ``owners``."""
    cuts = (np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist()
    starts = [0] + cuts
    return list(zip(owners[starts].tolist(), starts, cuts + [len(owners)]))
