"""The two-phase period walk must match the retained per-period loop bit for bit."""

import dataclasses

import numpy as np
import pytest

from repro.core import collector as collector_module
from repro.core.attacker import LoopCountingAttacker, SweepCountingAttacker
from repro.core.collector import NoiseHooks, TraceCollector
from repro.core.walk_ref import ReferenceTraceCollector
from repro.defenses.interrupt_noise import SpuriousInterruptInjector
from repro.sim.events import MS
from repro.sim.frequency import FrequencyConfig
from repro.sim.machine import MachineConfig
from repro.timers.spec import (
    CHROME_TIMER,
    FIREFOX_TIMER,
    NATIVE_TIMER,
    RANDOMIZED_DEFENSE_TIMER,
    TOR_TIMER,
)
from repro.workload.browser import CHROME
from repro.workload.website import profile_for

from tests.core.test_failure_injection import FrozenSpec

BROWSER = dataclasses.replace(CHROME, trace_seconds=1.0)
TIMERS = [NATIVE_TIMER, FIREFOX_TIMER, TOR_TIMER, CHROME_TIMER, RANDOMIZED_DEFENSE_TIMER]
ATTACKERS = [LoopCountingAttacker(), SweepCountingAttacker()]


def collect_both(browser=BROWSER, sites=("nytimes.com",), traces=2, noise=None, **kwargs):
    out = []
    for cls in (ReferenceTraceCollector, TraceCollector):
        collector = cls(MachineConfig(), browser, seed=3, **kwargs)
        out.append(
            collector.collect([profile_for(name) for name in sites], traces, noise=noise)
        )
    return out


def assert_batches_identical(reference, optimized):
    assert len(reference) == len(optimized)
    for a, b in zip(reference, optimized):
        assert a.observed_starts.dtype == b.observed_starts.dtype == np.float64
        assert a.counters.dtype == b.counters.dtype == np.float64
        assert np.array_equal(a.observed_starts, b.observed_starts)
        assert np.array_equal(a.counters, b.counters)
        assert (a.label, a.attacker) == (b.label, b.attacker)


class TestBitIdentity:
    @pytest.mark.parametrize("timer", TIMERS, ids=lambda spec: spec.kind.value)
    @pytest.mark.parametrize("attacker", ATTACKERS, ids=lambda a: a.name)
    def test_every_timer_and_attacker(self, timer, attacker):
        assert_batches_identical(*collect_both(timer=timer, attacker=attacker))

    @pytest.mark.parametrize("attacker", ATTACKERS, ids=lambda a: a.name)
    def test_without_measurement_noise(self, attacker):
        browser = dataclasses.replace(BROWSER, measurement_noise=0.0)
        assert_batches_identical(*collect_both(browser, attacker=attacker))

    def test_noise_hooks(self):
        noise = NoiseHooks(
            interrupt_injector=SpuriousInterruptInjector(),
            occupancy_floor=0.3,
            load_stretch=1.2,
        )
        assert_batches_identical(
            *collect_both(noise=noise, attacker=SweepCountingAttacker())
        )

    def test_degenerate_timer_fallback(self):
        reference, optimized = collect_both(timer=FrozenSpec(), traces=1)
        assert_batches_identical(reference, optimized)
        assert 150 <= len(optimized[0]) <= 250

    def test_rng_left_in_the_same_state(self, nytimes_run):
        states = []
        for cls in (ReferenceTraceCollector, TraceCollector):
            collector = cls(MachineConfig(), BROWSER, attacker=SweepCountingAttacker())
            rng = np.random.default_rng(9)
            collector._walk_periods(nytimes_run, CHROME_TIMER.build(seed=1), rng, "x")
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]


class TestPeriodBoundaries:
    def test_max_periods_guard(self, monkeypatch):
        monkeypatch.setattr(collector_module, "_MAX_PERIODS", 10)
        collector = TraceCollector(MachineConfig(), BROWSER)
        with pytest.raises(RuntimeError, match="exceeded 10 periods"):
            collector.collect(profile_for("nytimes.com"))

    def test_boundaries_chain_and_end_at_execution(self, nytimes_run):
        gaps = nytimes_run.attacker_timeline.gaps
        horizon = 8_000 * MS
        begins, ends, observed = collector_module._period_boundaries(
            gaps, CHROME_TIMER.build(seed=2), horizon, 5 * MS
        )
        assert len(begins) == len(ends) == len(observed) > 1000
        assert np.array_equal(begins[1:], ends[:-1])
        assert np.all(ends > begins)
        assert begins[-1] < horizon <= ends[-1]
        for t in ends[::97]:
            assert gaps.next_execution_time(float(t)) == t


class TestCountMany:
    """Unfloored ``count_many`` equals per-period ``count`` bit for bit."""

    @staticmethod
    def probes(run, n=200):
        gaps = run.attacker_timeline.gaps
        begins = np.arange(n) * 5 * MS + 1234.5
        exec_ns = np.array([gaps.executed_between(t, t + 5 * MS) for t in begins])
        return begins, exec_ns

    @pytest.mark.parametrize("attacker", ATTACKERS, ids=lambda a: a.name)
    def test_matches_count(self, attacker, nytimes_run):
        begins, exec_ns = self.probes(nytimes_run)
        rng = np.random.default_rng(4)
        expected = [attacker.count(e, t, nytimes_run, rng) for e, t in zip(exec_ns, begins)]
        scales = attacker.draw_scales
        draws = np.random.default_rng(4).normal(0.0, scales, size=(len(begins), len(scales)))
        got = attacker.count_many(exec_ns, begins, nytimes_run, draws)
        assert np.array_equal(got, np.array(expected))

    def test_sweep_scalar_power_at_pinned_frequency(self):
        """The frequency factor uses Python's scalar ``**`` per level."""
        machine = MachineConfig(
            frequency=FrequencyConfig(scaling_enabled=False, pinned_ghz=2.0)
        )
        collector = TraceCollector(machine, BROWSER)
        run = collector._simulate(
            profile_for("nytimes.com"), np.random.default_rng(5), NoiseHooks()
        )
        attacker = SweepCountingAttacker(sweep_jitter=0.0)
        begins, exec_ns = self.probes(run, n=150)
        expected = [
            attacker.count(e, t, run, np.random.default_rng(0))
            for e, t in zip(exec_ns, begins)
        ]
        got = attacker.count_many(exec_ns, begins, run, np.zeros((len(begins), 1)))
        assert np.array_equal(got, np.array(expected))

    def test_empty(self, nytimes_run):
        for attacker in ATTACKERS:
            draws = np.empty((0, len(attacker.draw_scales)))
            assert len(attacker.count_many(np.empty(0), np.empty(0), nytimes_run, draws)) == 0
