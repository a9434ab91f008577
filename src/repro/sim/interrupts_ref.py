"""Retained reference implementation of interrupt synthesis.

PR 5 rewrote :class:`~repro.sim.machine.InterruptSynthesizer`'s hot path
around contiguous ``searchsorted`` owner slices, grouped latency draws
and in-place array assembly.  This module keeps the *pre-vectorization*
semantics alive as an executable specification:
:class:`ReferenceInterruptSynthesizer` draws from the RNG in exactly the
same order, with the same sizes and distribution parameters, but derives
every index with per-burst boolean masks and assembles every time array
with plain out-of-place arithmetic — the shapes the optimized code was
refactored away from.

The two synthesizers must agree **bit-for-bit** on every seed: that is
the ``sim.synthesize`` differential oracle in :mod:`repro.verify`, and it
is what certifies that future speedups touch only the *how*, never the
*what*.  Anything PR 5 did not restructure (timer ticks, tick work,
background IRQs, turbo artifacts, occupancy distortion, scheduler
contention) is intentionally shared with the base class — those paths
are their own reference.  Core assembly stays eager here: every
:class:`~repro.sim.timeline.CoreTimeline` is built before ``synthesize``
returns, so the oracle also compares the optimized synthesizer's
on-first-access assembly with an eager one.

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
    _TLB_FRACTION_OF_RESCHED,
    _TYPE_ORDER,
    InterruptSynthesizer,
)
from repro.sim.timeline import CoreTimeline
from repro.workload.phases import KIND_PROFILES, ActivityBurst, BurstKind
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

    # -- generation stages --------------------------------------------

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
                KIND_PROFILES[b.kind].irq_rate_hz
                * b.intensity
                * _BURST_RATE_SCALE
                for b in bursts
            ]
        )
        times, owners = self._poisson_times_batch(bursts, rates, rng)
        if not len(times):
            return
        targets = np.empty(len(times), dtype=np.int64)
        for i, burst in enumerate(bursts):
            mask = owners == i
            members = int(mask.sum())
            if members:
                targets[mask] = routing.route_source(burst.source, members, rng)
        device_types = [_KIND_IRQS[b.kind][0] for b in bursts]
        durations = self._sample_durations_grouped(device_types, owners, rng)
        for i, burst in enumerate(bursts):
            mask = owners == i
            if mask.any():
                self._scatter(
                    per_core,
                    device_types[i],
                    times[mask],
                    durations[mask],
                    targets[mask],
                    burst.source,
                )
        self._add_deferred(
            per_core, bursts, style, times, owners, targets, rng, tick_phases
        )

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
            return
        deferred_owners = owners[keep]
        delay = rng.exponential(_DEFERRED_DELAY_MEAN_NS, int(keep.sum()))
        times = trigger_times[keep] + delay
        cores = self.softirq_placement.place(
            trigger_cores[keep], self.config.n_cores, rng
        )
        snap_probability = np.array(
            [
                _IRQ_WORK_TICK_SNAP_PROBABILITY
                if t is InterruptType.IRQ_WORK
                else _DEFERRED_TICK_SNAP_PROBABILITY
                for t in deferred_types
            ]
        )
        snap = rng.random(len(times)) < snap_probability[deferred_owners]
        # Per-element tick snapping: scalar phase/ceil arithmetic in the
        # same operation order as the vectorized _next_tick.
        period_ns = SEC / self.config.os.tick_hz
        for j in np.flatnonzero(snap):
            phase = tick_phases[int(cores[j])]
            times[j] = (
                phase + np.ceil(np.maximum(times[j] - phase, 0.0) / period_ns) * period_ns
            )
        durations = self._sample_durations_grouped(deferred_types, deferred_owners, rng)
        load_stretch = np.array(
            [
                1.0
                if t is None or t is InterruptType.IRQ_WORK
                else 1.0 + p.duration_load_factor * b.intensity * c
                for t, p, b, c in zip(deferred_types, profiles, bursts, coalescing)
            ]
        )
        durations = durations * load_stretch[deferred_owners]
        for i, burst in enumerate(bursts):
            mask = deferred_owners == i
            if mask.any():
                self._scatter(
                    per_core,
                    deferred_types[i],
                    times[mask],
                    durations[mask],
                    cores[mask],
                    f"{burst.source}/deferred",
                )

    def _add_compute_ipis(
        self,
        per_core: list[list[InterruptBatch]],
        bursts: Sequence[ActivityBurst],
        style: SiteStyle,
        rng: np.random.Generator,
    ) -> None:
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
            durations = durations * stretch[owners]
            for i, burst in enumerate(bursts):
                mask = owners == i
                if mask.any():
                    self._scatter(
                        per_core,
                        InterruptType.RESCHED_IPI,
                        resched_times[mask],
                        durations[mask],
                        targets[mask],
                        burst.source,
                    )
        tlb_times, tlb_owners = self._poisson_times_batch(
            bursts, rates * _TLB_FRACTION_OF_RESCHED, rng
        )
        if len(tlb_times):
            for core in range(self.config.n_cores):
                durations = self.latency_model.sample(
                    InterruptType.TLB_SHOOTDOWN, rng, len(tlb_times)
                )
                for i, burst in enumerate(bursts):
                    mask = tlb_owners == i
                    if mask.any():
                        per_core[core].append(
                            InterruptBatch(
                                InterruptType.TLB_SHOOTDOWN,
                                tlb_times[mask],
                                durations[mask],
                                cause=f"{burst.source}/tlb",
                            )
                        )

    # -- assembly ------------------------------------------------------

    def _assemble(self, per_core: list[list[InterruptBatch]]) -> list[CoreTimeline]:
        # Every core assembled before synthesize returns, as a plain list.
        return [self._build_core(batches) for batches in per_core]

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
