"""Failure-injection tests: the stack degrades loudly, not silently."""

import numpy as np
import pytest

from repro.core.collector import TraceCollector
from repro.sim.machine import InterruptSynthesizer, MachineConfig
from repro.timers.base import BrowserTimer
from repro.workload.browser import CHROME, Browser
from repro.workload.phases import ActivityTimeline
from repro.workload.website import profile_for

SHORT = Browser(name="Chrome 92", timer=CHROME.timer, trace_seconds=1.0)


class FrozenTimer(BrowserTimer):
    """A pathological timer that never advances."""

    def read(self, t_real_ns: float) -> float:
        return 0.0

    def first_crossing(self, t0_real_ns: float, elapsed_ns: float) -> float:
        return float(t0_real_ns)  # never crosses


class FrozenSpec:
    """Timer-spec stand-in returning the frozen timer."""

    def build(self, seed: int = 0) -> FrozenTimer:
        return FrozenTimer()


class TestDegenerateTimer:
    def test_frozen_timer_does_not_hang(self):
        """A timer that never crosses falls back to real-period stepping
        instead of looping forever."""
        collector = TraceCollector(
            MachineConfig(), SHORT, timer=FrozenSpec(), seed=1
        )
        trace = collector.collect(profile_for("amazon.com"))[0]
        # The fallback advances one nominal period at a time.
        assert 150 <= len(trace) <= 250


class TestDegenerateWorkload:
    def test_idle_machine_still_produces_trace(self):
        """With no victim activity the trace is flat (ticks only)."""
        synthesizer = InterruptSynthesizer(MachineConfig(pin_cores=True))
        rng = np.random.default_rng(0)
        empty = ActivityTimeline([], 1_000_000_000)
        run = synthesizer.synthesize(empty, rng=rng)
        stolen = run.attacker_timeline.gaps.total_stolen_ns / 1e9
        assert 0.0 < stolen < 0.02  # only tick + background overhead

    def test_empty_timeline_occupancy_is_noise_only(self):
        synthesizer = InterruptSynthesizer(MachineConfig())
        rng = np.random.default_rng(0)
        empty = ActivityTimeline([], 1_000_000_000)
        run = synthesizer.synthesize(empty, rng=rng)
        assert run.occupancy_victim.max() == 0.0
        assert run.occupancy_ambient.max() > 0.0


class TestCollectorGuards:
    def test_trace_longer_than_horizon_is_refused(self):
        from repro.core.trace import TraceSpec

        with pytest.raises(ValueError):
            TraceSpec(horizon_ns=1_000, period_ns=2_000)

    def test_nonpositive_period_refused(self):
        # 0 is refused too, rather than read as "use the 5 ms default".
        for period_ns in (-5, 0):
            with pytest.raises(ValueError):
                TraceCollector(MachineConfig(), SHORT, period_ns=period_ns)
