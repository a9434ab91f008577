"""Retained reference implementation of interrupt synthesis.

PR 5 rewrote :class:`~repro.sim.machine.InterruptSynthesizer`'s hot path
around contiguous ``searchsorted`` owner slices, grouped latency draws
and in-place array assembly.  This module keeps the *pre-vectorization*
semantics alive as an executable specification:
:class:`ReferenceInterruptSynthesizer` draws from the RNG streams in
exactly the same order, with the same sizes and distribution parameters,
but derives every index with per-burst boolean masks and assembles every
time array with plain out-of-place arithmetic — the shapes the optimized
code was refactored away from.

The two synthesizers must agree **bit-for-bit** on every seed: that is
the ``sim.synthesize`` differential oracle in :mod:`repro.verify`, and it
is what certifies that future speedups touch only the *how*, never the
*what*.  Anything the vectorized rewrite left alone (compute-IPI and
background routing, occupancy distortion, the governor, the contention
model) is intentionally shared with the base class — those paths are
their own reference.

Per-core streams are derived here as ``SeedSequence(word).spawn(n_cores)``
and every core is drawn, in core order, before ``synthesize`` returns:
its own draws written out again in :meth:`_draw_core`, and its events
cut out of the shared routing by mask.  The oracle therefore also
compares the optimized synthesizer's one-stream-per-core derivation,
which core draws what, its per-core cuts and its on-first-access
drawing with eager ones.

Nothing here is exported through ``repro.sim``'s public surface; the
verify harness and its tests are the only intended consumers.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.sim.events import SEC
from repro.sim.interrupts import (
    HandlerLatencyModel,
    InterruptBatch,
    InterruptType,
)
from repro.sim.machine import (
    _BURST_RATE_SCALE,
    _DEFERRED_DELAY_MEAN_NS,
    _DEFERRED_TICK_SNAP_PROBABILITY,
    _IRQ_WORK_TICK_SNAP_PROBABILITY,
    _KIND_IRQS,
    _TICK_WORK_LOAD_FACTOR,
    _TURBO_ARTIFACT_RATE_HZ,
    _TYPE_ORDER,
    InterruptSynthesizer,
    _CorePart,
    _Routed,
)
from repro.sim.scheduler import contention_batch
from repro.sim.timeline import CoreTimeline
from repro.workload.phases import KIND_PROFILES, ActivityBurst
from repro.workload.website import SiteStyle


class ReferenceHandlerLatencyModel(HandlerLatencyModel):
    """Latency model without the ``platform_factor == 1.0`` fast path.

    The optimized model skips the multiply when the factor is exactly 1;
    the reference always performs it.  ``x * 1.0`` is an IEEE identity
    for the positive finite durations involved, so the outputs stay
    bit-identical — the oracle exercises precisely that claim.
    """

    def sample(
        self, itype: InterruptType, rng: np.random.Generator, size: int
    ) -> np.ndarray:
        draws = self.spec_for(itype).sample(rng, size)
        return draws * self.platform_factor


def merge_batches_ref(batches: Sequence[InterruptBatch]) -> tuple[np.ndarray, ...]:
    """Reference for :func:`repro.sim.interrupts.merge_batches`.

    Uses numpy's stable argsort directly instead of the two-pass
    unstable-sort-plus-tie-fixup of ``_stable_time_order``.
    """
    type_index = {t: i for i, t in enumerate(InterruptType)}
    live = [b for b in batches if len(b)]
    if not live:
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        return empty_f, empty_f.copy(), empty_i, empty_i.copy(), []
    cause_names: list[str] = []
    cause_index: dict[str, int] = {}
    for batch in live:
        if batch.cause not in cause_index:
            cause_index[batch.cause] = len(cause_names)
            cause_names.append(batch.cause)
    times = np.concatenate([b.times for b in live])
    durations = np.concatenate([b.durations for b in live])
    type_codes = np.concatenate(
        [np.full(len(b), type_index[b.itype], dtype=np.int64) for b in live]
    )
    cause_codes = np.concatenate(
        [np.full(len(b), cause_index[b.cause], dtype=np.int64) for b in live]
    )
    order = np.argsort(times, kind="stable")
    return (
        times[order],
        durations[order],
        type_codes[order],
        cause_codes[order],
        cause_names,
    )


class ReferenceInterruptSynthesizer(InterruptSynthesizer):
    """Mask-and-loop reference for the vectorized synthesizer.

    RNG-call identical to the base class — every draw happens at the
    same point in the stream with the same size and parameters — while
    all derived indexing and arithmetic uses the pre-PR-5 shapes.
    """

    def __init__(self, config) -> None:
        super().__init__(config)
        self.latency_model = ReferenceHandlerLatencyModel(
            platform_factor=config.os.handler_cost_factor
        )

    # -- arrival generation -------------------------------------------

    def _poisson_times_batch(
        self,
        bursts: Sequence[ActivityBurst],
        rates_hz: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
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
        # Window draws: boolean membership masks instead of searchsorted
        # slice bounds, same one-call-per-multi-window-burst draw order.
        window = np.zeros(len(owners), dtype=np.float64)
        for i in range(len(bursts)):
            mask = owners == i
            members = int(mask.sum())
            if members and n_windows[i] > 1:
                window[mask] = rng.integers(0, n_windows[i], members)
        raw_offset = rng.random(len(owners))
        # Out-of-place per-burst assembly; each binary operation matches
        # the optimized in-place sequence ((w·p) + s) + (r·on_len).
        times = np.empty(len(owners), dtype=np.float64)
        for i in range(len(bursts)):
            mask = owners == i
            if not mask.any():
                continue
            placed = (window[mask] * period[i] + starts[i]) + (
                raw_offset[mask] * on_len[i]
            )
            times[mask] = placed
        if rippled.any():
            clipped = np.empty_like(times)
            for i in range(len(bursts)):
                mask = owners == i
                if mask.any():
                    clipped[mask] = np.minimum(
                        np.maximum(times[mask], starts[i]), starts[i] + durations[i]
                    )
            times = clipped
        return times, owners

    # -- duration sampling --------------------------------------------

    def _sample_durations_grouped(
        self,
        burst_types: Sequence[Optional[InterruptType]],
        owners: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        durations = np.empty(len(owners), dtype=np.float64)
        types_present = sorted(
            {t for t in burst_types if t is not None}, key=_TYPE_ORDER.__getitem__
        )
        for itype in types_present:
            # All arrivals of this type, gathered by mask in burst order;
            # owners are sorted, so this matches the slice concatenation.
            idx = np.flatnonzero(
                np.isin(owners, [i for i, t in enumerate(burst_types) if t is itype])
            )
            if not len(idx):
                continue
            draws = self.latency_model.sample(itype, rng, len(idx))
            durations[idx] = draws
        return durations

    # -- the shared stream --------------------------------------------

    def _route_device_irqs(
        self,
        bursts: Sequence[ActivityBurst],
        style: SiteStyle,
        rng: np.random.Generator,
    ) -> list[_Routed]:
        routing = self.config.routing_policy()
        rates = np.array(
            [
                KIND_PROFILES[b.kind].irq_rate_hz
                * b.intensity
                * _BURST_RATE_SCALE
                for b in bursts
            ]
        )
        times, owners = self._poisson_times_batch(bursts, rates, rng)
        if not len(times):
            return []
        targets = np.empty(len(times), dtype=np.int64)
        for i, burst in enumerate(bursts):
            mask = owners == i
            members = int(mask.sum())
            if members:
                targets[mask] = routing.route_source(burst.source, members, rng)
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
        deferred_types = [_KIND_IRQS[b.kind][1] for b in bursts]
        profiles = [KIND_PROFILES[b.kind] for b in bursts]
        coalescing = [
            style.net_coalescing if t is InterruptType.SOFTIRQ_NET_RX else 1.0
            for t in deferred_types
        ]
        keep_probability = np.array(
            [
                0.0 if t is None else min(p.deferred_per_irq / c, 1.0)
                for t, p, c in zip(deferred_types, profiles, coalescing)
            ]
        )
        keep = rng.random(len(trigger_times)) < keep_probability[owners]
        if not keep.any():
            return None
        kept = np.flatnonzero(keep)
        cores = self.softirq_placement.place(
            trigger_cores[kept], self.config.n_cores, rng
        )
        snap_probability = np.array(
            [
                _IRQ_WORK_TICK_SNAP_PROBABILITY
                if t is InterruptType.IRQ_WORK
                else _DEFERRED_TICK_SNAP_PROBABILITY
                for t in deferred_types
            ]
        )
        load_stretch = np.array(
            [
                1.0
                if t is None or t is InterruptType.IRQ_WORK
                else 1.0 + p.duration_load_factor * b.intensity * c
                for t, p, b, c in zip(deferred_types, profiles, bursts, coalescing)
            ]
        )
        return _Routed(
            trigger_times[kept],
            owners[kept],
            cores,
            deferred_types,
            [f"{b.source}/deferred" for b in bursts],
            stretch=load_stretch,
            snap=snap_probability,
        )

    # -- one core's own stream ----------------------------------------

    def _draw_core(
        self, part: _CorePart, stream: np.random.Generator
    ) -> list[InterruptBatch]:
        timeline = part.timeline
        horizon_ns = timeline.horizon_ns
        period_ns = SEC / self.config.os.tick_hz
        phase = stream.uniform(0, period_ns)
        ticks = np.arange(phase, horizon_ns, period_ns, dtype=np.float64)
        batches = [
            InterruptBatch(
                InterruptType.TIMER,
                ticks,
                self.latency_model.sample(InterruptType.TIMER, stream, len(ticks)),
                cause="tick",
            )
        ]
        loads = timeline.load_at_array(ticks)
        active = np.flatnonzero(loads > 0.02)
        if len(active):
            work = self.latency_model.sample(
                InterruptType.SOFTIRQ_TIMER, stream, len(active)
            )
            batches.append(
                InterruptBatch(
                    InterruptType.SOFTIRQ_TIMER,
                    ticks[active],
                    work * (1.0 + _TICK_WORK_LOAD_FACTOR * loads[active]),
                    cause="tick_work",
                )
            )
        for routed in part.routed:
            batches.extend(self._draw_routed(routed, part.core, stream, phase))
        if self.config.turbo_boost_artifacts:
            count = stream.poisson(_TURBO_ARTIFACT_RATE_HZ * horizon_ns / SEC)
            if count:
                times = np.sort(stream.uniform(0, horizon_ns, count))
                batches.append(
                    InterruptBatch(
                        InterruptType.UNKNOWN,
                        times,
                        self.latency_model.sample(InterruptType.UNKNOWN, stream, count),
                        cause="turbo_boost",
                    )
                )
        if part.core == self.config.attacker_core and not self.config.pin_cores:
            batches.append(
                contention_batch(
                    timeline,
                    self.config.scheduler,
                    self.config.os.contention_scale,
                    stream,
                )
            )
        batches.extend(part.extra)
        return batches

    def _draw_routed(
        self,
        routed: _Routed,
        core: int,
        stream: np.random.Generator,
        phase: float,
    ) -> list[InterruptBatch]:
        # The core's events by mask (every event of a broadcast).
        if routed.targets is None:
            mine = np.arange(len(routed.owners))
        else:
            mine = np.flatnonzero(routed.targets == core)
        if not len(mine):
            return []
        owners = routed.owners[mine]
        times = routed.times[mine]
        if routed.snap is not None:
            delay = stream.exponential(_DEFERRED_DELAY_MEAN_NS, len(mine))
            times = times + delay
            snap = stream.random(len(mine)) < routed.snap[owners]
            # Per-element tick snapping: scalar phase/ceil arithmetic in
            # the same operation order as the vectorized _next_tick.
            period_ns = SEC / self.config.os.tick_hz
            for j in np.flatnonzero(snap):
                times[j] = (
                    phase
                    + np.ceil(np.maximum(times[j] - phase, 0.0) / period_ns) * period_ns
                )
        durations = self._sample_durations_grouped(routed.types, owners, stream)
        if routed.stretch is not None:
            durations = durations * routed.stretch[owners]
        batches = []
        for i in range(len(routed.types)):
            mask = owners == i
            if mask.any():
                batches.append(
                    InterruptBatch(
                        routed.types[i],
                        times[mask],
                        durations[mask],
                        cause=routed.causes[i],
                    )
                )
        return batches

    # -- assembly ------------------------------------------------------

    def _assemble(self, parts: list[_CorePart]) -> list[CoreTimeline]:
        # Every core drawn and assembled before synthesize returns, in
        # core order, as a plain list; streams from SeedSequence.spawn.
        children = np.random.SeedSequence(parts[0].entropy).spawn(len(parts))
        return [
            self._build_core(self._draw_core(part, np.random.default_rng(child)))
            for part, child in zip(parts, children)
        ]

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
        times, durations, type_codes, cause_codes, cause_names = merge_batches_ref(
            batches
        )
        # Validated constructor: the reference re-checks sortedness the
        # trusted fast path skips.
        return CoreTimeline(
            times, durations, type_codes, cause_codes, cause_names,
            arrivals_sorted=False,
        )


__all__ = [
    "ReferenceHandlerLatencyModel",
    "ReferenceInterruptSynthesizer",
    "merge_batches_ref",
]
