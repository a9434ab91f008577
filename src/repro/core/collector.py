"""Trace collection: run an attacker against a victim on a machine.

``TraceCollector`` wires together the whole stack — website profile →
activity timeline → interrupt synthesis → attacker-loop walk through the
browser timer — and produces :class:`~repro.core.trace.Trace` objects
and labeled datasets.  This mirrors the paper's Selenium-automated data
collection (§4.1): repeated site loads, one trace per load.

Collection is embarrassingly parallel at (site, trace-index) granularity
— every trace derives its RNG stream from ``(collector seed, site seed,
trace index)`` alone — so :meth:`TraceCollector.collect` fans out over
an :class:`~repro.engine.engine.ExecutionEngine` when one is attached,
and consults the engine's :class:`~repro.engine.cache.TraceCache` before
simulating anything.  Parallel, cached and serial runs are bit-identical.

``collect()`` is the single entry point: it takes one site or many,
a per-site trace count, and returns a :class:`TraceBatch` that behaves
as a sequence of traces and stacks into ``(X, labels)`` on demand.
(The pre-unification methods ``collect_trace`` / ``collect_traces`` /
``collect_dataset`` shipped one release as ``DeprecationWarning``
shims and are now gone.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.core.attacker import Attacker, LoopCountingAttacker
from repro.core.trace import Trace, TraceSpec, stack_dataset
from repro.sim.interrupts import InterruptBatch
from repro.sim.machine import InterruptSynthesizer, MachineConfig, MachineRun
from repro.timers.spec import TimerSpec
from repro.workload.browser import Browser
from repro.workload.phases import ActivityTimeline, merge_timelines
from repro.workload.website import WebsiteProfile


@dataclass
class NoiseHooks:
    """Optional noise sources applied during collection.

    ``extra_timelines`` adds background activity (Slack/Spotify, or the
    cache-sweep countermeasure's occupancy pressure);
    ``interrupt_injector`` produces extra interrupt batches per run (the
    §6.2 spurious-interrupt defense); ``load_stretch`` slows page loads
    (the defense's +15.7 % load-time cost); ``occupancy_floor`` raises
    LLC occupancy seen by sweeps (cache-sweep noise).
    """

    extra_timelines: Sequence[ActivityTimeline] = ()
    interrupt_injector: Optional[object] = None
    load_stretch: float = 1.0
    occupancy_floor: float = 0.0


@dataclass(frozen=True)
class TraceBatch(Sequence):
    """The result of one :meth:`TraceCollector.collect` call.

    Behaves as an immutable sequence of :class:`~repro.core.trace.Trace`
    objects (indexing, iteration, ``len``) and stacks into the classic
    ``(X, labels)`` dataset pair via :meth:`stacked`.
    """

    traces: tuple = ()

    def __len__(self) -> int:
        return len(self.traces)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TraceBatch(traces=self.traces[index])
        return self.traces[index]

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def stacked(self) -> tuple[np.ndarray, list[str]]:
        """Stack into ``(X, labels)`` for the ml layer."""
        return stack_dataset(list(self.traces))


class TraceCollector:
    """Collects traces for one (machine, browser, attacker) configuration."""

    def __init__(
        self,
        machine: MachineConfig,
        browser: Browser,
        attacker: Optional[Attacker] = None,
        period_ns: Optional[int] = None,
        timer: Optional[TimerSpec] = None,
        seed: int = 0,
        engine=None,
        cache=None,
    ):
        self.machine = machine
        self.browser = browser
        self.attacker = attacker or LoopCountingAttacker()
        self.period_ns = 5_000_000 if period_ns is None else int(period_ns)  # paper default 5 ms
        self.timer_spec = timer or browser.timer
        self.seed = int(seed)
        self.synthesizer = InterruptSynthesizer(machine)
        self.spec = TraceSpec(horizon_ns=browser.horizon_ns, period_ns=self.period_ns)
        self.engine = engine
        self.cache = cache if cache is not None else getattr(engine, "cache", None)

    def __getstate__(self):
        # Engine and cache handles must never cross the process boundary:
        # workers simulate, the parent owns scheduling and cache writes.
        state = self.__dict__.copy()
        state["engine"] = None
        state["cache"] = None
        return state

    # ------------------------------------------------------------------

    def collect(
        self,
        sites: Union[WebsiteProfile, Sequence[WebsiteProfile]],
        traces_per_site: int = 1,
        *,
        start_index: int = 0,
        noise: Optional[NoiseHooks] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> TraceBatch:
        """Collect ``traces_per_site`` traces for each site.

        The single collection entry point: ``sites`` is one
        :class:`~repro.workload.website.WebsiteProfile` or a sequence of
        them; trace indices run ``start_index .. start_index +
        traces_per_site - 1`` per site (the index participates in the
        per-trace RNG derivation, so distinct indices are distinct
        victim loads).  ``labels`` optionally relabels traces per site
        (e.g. collapsing open-world sites onto one class).  Returns a
        :class:`TraceBatch` ordered site-major, index-minor.
        """
        if isinstance(sites, WebsiteProfile):
            sites = [sites]
        else:
            sites = list(sites)
        if not sites:
            raise ValueError("need at least one site to collect")
        if traces_per_site < 1:
            raise ValueError(f"need at least one trace per site, got {traces_per_site}")
        if labels is not None and len(labels) != len(sites):
            raise ValueError(
                f"{len(labels)} labels for {len(sites)} site(s); labels are per site"
            )
        requests = [
            (site, start_index + k, noise)
            for site in sites
            for k in range(traces_per_site)
        ]
        traces = self._collect_batch(requests)
        if labels is not None:
            for i, trace in enumerate(traces):
                trace.label = labels[i // traces_per_site]
        return TraceBatch(traces=tuple(traces))

    def _collect_batch(
        self, requests: Sequence[tuple[WebsiteProfile, int, Optional[NoiseHooks]]]
    ) -> list[Trace]:
        """Resolve (site, index, noise) requests via cache, then engine.

        Cache lookups happen in the parent process; only misses are
        dispatched to workers, and their results are written back here —
        workers never touch the cache, so there are no write races.
        """
        traces: list[Optional[Trace]] = [None] * len(requests)
        missing: list[int] = []
        keys = self._cache_keys(requests) if self.cache else [None] * len(requests)
        for i, key in enumerate(keys):
            cached = self.cache.get(key) if key is not None else None
            if cached is not None:
                traces[i] = cached
            else:
                missing.append(i)
        if missing:
            engine = self.engine
            tasks = [(self, *requests[i]) for i in missing]
            if engine is not None:
                fresh = engine.map(_collect_task, tasks, stage="collect")
            else:
                fresh = [_collect_task(task) for task in tasks]
            for i, trace in zip(missing, fresh):
                traces[i] = trace
                if keys[i] is not None:
                    self.cache.put(keys[i], trace)
        return traces  # type: ignore[return-value]

    def _cache_key(
        self, site: WebsiteProfile, trace_index: int, noise: Optional[NoiseHooks]
    ) -> Optional[str]:
        """Content hash of everything that determines this trace.

        Returns None (bypassing the cache) when any component — usually a
        custom noise injector — cannot be canonically tokenized.
        """
        return self._cache_keys([(site, trace_index, noise)])[0]

    def _cache_keys(
        self, requests: Sequence[tuple[WebsiteProfile, int, Optional[NoiseHooks]]]
    ) -> list[Optional[str]]:
        """:meth:`_cache_key` of every request, tokenizing each part once.

        The collector-wide components are tokenized once per call, and
        each distinct site and noise object once; a component that cannot
        be tokenized bypasses the cache for the requests that carry it.
        """
        from repro import __version__
        from repro.engine.cache import Uncacheable, key_from_parts, key_parts

        try:
            shared = key_parts(
                {
                    "version": __version__,
                    "machine": self.machine,
                    "browser": self.browser,
                    "attacker": self.attacker,
                    "timer": self.timer_spec,
                    "period_ns": self.period_ns,
                    "horizon_ns": self.spec.horizon_ns,
                    "seed": self.seed,
                }
            )
        except Uncacheable:
            return [None] * len(requests)
        # Keyed by identity: the requests keep every object alive.
        tokenized: dict[tuple[str, int], Optional[dict[str, str]]] = {}

        def parts_of(name: str, value) -> Optional[dict[str, str]]:
            memo = (name, id(value))
            if memo not in tokenized:
                try:
                    tokenized[memo] = key_parts({name: value})
                except Uncacheable:
                    tokenized[memo] = None
            return tokenized[memo]

        keys: list[Optional[str]] = []
        for site, trace_index, noise in requests:
            site_part = parts_of("site", site)
            noise_part = parts_of("noise", noise)
            if site_part is None or noise_part is None:
                keys.append(None)
                continue
            index_part = key_parts({"trace_index": int(trace_index)})
            keys.append(key_from_parts({**shared, **site_part, **noise_part, **index_part}))
        return keys

    def _collect_uncached(
        self,
        site: WebsiteProfile,
        trace_index: int,
        noise: Optional[NoiseHooks],
    ) -> Trace:
        """The original collection path: simulate, then walk periods."""
        noise = noise or NoiseHooks()
        rng = np.random.default_rng(
            (self.seed * 1_000_003 + site.seed * 7_919 + trace_index) & 0x7FFFFFFF
        )
        with obs.span("collect.trace", site=site.name, index=int(trace_index)):
            run = self._simulate(site, rng, noise)
            timer = self.timer_spec.build(seed=int(rng.integers(0, 2**31)))
            with obs.span("collect.walk") as walk:
                trace = self._walk_periods(run, timer, rng, label=site.name)
                walk.set(periods=len(trace.counters))
        obs.counter("collect.traces").inc()
        obs.counter("collect.periods").inc(len(trace.counters))
        return trace

    # ------------------------------------------------------------------

    def _simulate(
        self, site: WebsiteProfile, rng: np.random.Generator, noise: NoiseHooks
    ) -> MachineRun:
        stretch = self.browser.load_stretch * noise.load_stretch
        timeline = site.generate_load(rng, self.spec.horizon_ns, time_stretch=stretch)
        if noise.extra_timelines:
            timeline = merge_timelines(
                [timeline, *noise.extra_timelines], horizon_ns=self.spec.horizon_ns
            )
        extra_batches: list[tuple[int, InterruptBatch]] = []
        if noise.interrupt_injector is not None:
            extra_batches = noise.interrupt_injector.inject(
                self.machine, self.spec.horizon_ns, rng
            )
        run = self.synthesizer.synthesize(
            timeline, style=site.style, rng=rng, extra_batches=extra_batches
        )
        if noise.occupancy_floor > 0:
            # A cache-sweeping defender competes with the victim for LLC
            # lines: the victim's observable share shrinks while the
            # baseline (and its chaos) rises.  The victim's evictions
            # still land on top — which is why cache-sweep noise costs
            # the sweep attack only ~2 points in the paper (Table 2).
            floor = noise.occupancy_floor
            run.occupancy_victim = (1.0 - floor) * run.occupancy_victim
            run.occupancy_ambient = np.clip(run.occupancy_ambient + floor, 0.0, 1.0)
        return run

    def _walk_periods(
        self,
        run: MachineRun,
        timer,
        rng: np.random.Generator,
        label: str,
    ) -> Trace:
        """Replay the attacker loop (Fig 2) over one simulated run.

        Only the period boundaries form a serial recurrence (each period
        starts where the previous one ended), so the walk runs in two
        phases: the timer's
        :meth:`~repro.timers.base.BrowserTimer.period_boundaries` steps
        through the boundaries once, then every period's executed time
        and counter are computed in bulk.  All normal draws of the trace
        come from one ``rng.normal`` call whose C order is the per-period
        draw order — the attacker's draws, then measurement noise — so
        the result is bit-identical to the per-period loop kept in
        :mod:`repro.core.walk_ref`.
        """
        gaps = run.attacker_timeline.gaps
        horizon = float(self.spec.horizon_ns)
        begins, ends, observed_starts = timer.period_boundaries(
            gaps.gap_starts, gaps.gap_ends, horizon, float(self.period_ns)
        )
        ends = np.minimum(ends, horizon)
        exec_ns = (ends - begins) - (gaps.stolen_before(ends) - gaps.stolen_before(begins))
        noise_sigma = self.browser.measurement_noise
        scales = self.attacker.draw_scales + ((noise_sigma,) if noise_sigma > 0 else ())
        n_own = len(self.attacker.draw_scales)
        draws = rng.normal(0.0, scales, size=(len(begins), len(scales)))
        counters = self.attacker.count_many(exec_ns, begins, run, draws[:, :n_own])
        # np.where, not np.maximum: it keeps the loop's Python max() on ties
        # of signed zeros and on NaN.
        if noise_sigma > 0:
            factor = 1.0 + draws[:, n_own]
            counters = counters * np.where(factor > 0.0, factor, 0.0)
        return Trace(
            spec=self.spec,
            observed_starts=observed_starts,
            counters=np.floor(np.where(counters < 0.0, 0.0, counters)),
            label=label,
            attacker=self.attacker.name,
        )


def _collect_task(task: tuple) -> Trace:
    """One (collector, site, trace_index, noise) unit of engine work.

    Module-level so it pickles into worker processes; the collector
    pickles without its engine/cache handles (see ``__getstate__``).
    """
    collector, site, trace_index, noise = task
    return collector._collect_uncached(site, trace_index, noise)
