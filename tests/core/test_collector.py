"""Tests for trace collection."""

import numpy as np
import pytest

from repro.core.attacker import SweepCountingAttacker
from repro.core.collector import NoiseHooks, TraceCollector
from repro.defenses.interrupt_noise import SpuriousInterruptInjector
from repro.sim.events import MS, SEC
from repro.sim.machine import MachineConfig
from repro.timers.spec import NATIVE_TIMER, RANDOMIZED_DEFENSE_TIMER
from repro.workload.browser import CHROME, LINUX, Browser
from repro.workload.phases import ActivityBurst, ActivityTimeline, BurstKind
from repro.workload.website import profile_for

SHORT_CHROME = Browser(
    name=CHROME.name,
    timer=CHROME.timer,
    trace_seconds=3.0,
    measurement_noise=CHROME.measurement_noise,
)


@pytest.fixture(scope="module")
def collector():
    return TraceCollector(MachineConfig(os=LINUX), SHORT_CHROME, seed=5)


@pytest.fixture(scope="module")
def site():
    return profile_for("nytimes.com")


class TestCollectTrace:
    def test_trace_covers_horizon(self, collector, site):
        trace = collector.collect(site)[0]
        assert trace.observed_starts.max() <= SHORT_CHROME.horizon_ns
        # With P = 5 ms over 3 s, close to 600 periods fit.
        assert len(trace) > 500

    def test_counters_non_negative_integers(self, collector, site):
        trace = collector.collect(site)[0]
        assert trace.counters.min() >= 0
        np.testing.assert_array_equal(trace.counters, np.floor(trace.counters))

    def test_counter_band_matches_paper(self, collector, site):
        """Fig 3's 21k-27k band (at P=5ms), allowing turbo headroom."""
        vector = collector.collect(site)[0].to_vector()
        assert 24_000 <= vector.max() <= 29_000
        # Typical values sit in the paper's band; isolated periods can
        # dip further when a long gap spans a period boundary.
        assert 18_000 <= vector.mean() <= 27_500
        assert np.percentile(vector, 5) >= 12_000

    def test_label_and_attacker_recorded(self, collector, site):
        trace = collector.collect(site)[0]
        assert trace.label == "nytimes.com"
        assert trace.attacker == "loop-counting"

    def test_deterministic_per_trace_index(self, collector, site):
        a = collector.collect(site, start_index=3)[0]
        b = collector.collect(site, start_index=3)[0]
        np.testing.assert_array_equal(a.counters, b.counters)

    def test_trace_indices_differ(self, collector, site):
        a = collector.collect(site, start_index=0)[0]
        b = collector.collect(site, start_index=1)[0]
        assert not np.array_equal(a.counters, b.counters)

    def test_sweep_attacker_counts_small(self, site):
        collector = TraceCollector(
            MachineConfig(os=LINUX), SHORT_CHROME,
            attacker=SweepCountingAttacker(), seed=5,
        )
        vector = collector.collect(site)[0].to_vector()
        assert vector.max() <= 60

    def test_native_timer_period_boundaries_exact(self, site):
        collector = TraceCollector(
            MachineConfig(os=LINUX), SHORT_CHROME, timer=NATIVE_TIMER, seed=5
        )
        trace = collector.collect(site)[0]
        starts = trace.observed_starts
        diffs = np.diff(starts)
        # Precise timer: periods are P plus only gap spill-over.
        assert diffs.min() >= collector.period_ns - 1e-6
        assert np.median(diffs) < collector.period_ns * 1.2

    def test_randomized_timer_trace_still_terminates(self, site):
        collector = TraceCollector(
            MachineConfig(os=LINUX), SHORT_CHROME,
            timer=RANDOMIZED_DEFENSE_TIMER, seed=5,
        )
        trace = collector.collect(site)[0]
        assert len(trace) > 5


class TestNoiseHooks:
    def test_occupancy_floor_applied(self, site):
        collector = TraceCollector(
            MachineConfig(os=LINUX), SHORT_CHROME,
            attacker=SweepCountingAttacker(), seed=5,
        )
        quiet = collector.collect(site)[0]
        noisy = collector.collect(
            site, noise=NoiseHooks(occupancy_floor=0.9)
        )[0]
        # High occupancy floor slows every sweep -> lower counters.
        assert noisy.to_vector().mean() < quiet.to_vector().mean()

    def test_interrupt_injector_reduces_counters(self, collector, site):
        quiet = collector.collect(site)[0]
        noisy = collector.collect(
            site,
            noise=NoiseHooks(interrupt_injector=SpuriousInterruptInjector()),
        )[0]
        assert noisy.to_vector().mean() < quiet.to_vector().mean()

    def test_extra_timelines_merge(self, collector, site):
        background = ActivityTimeline(
            [ActivityBurst(0, SHORT_CHROME.horizon_ns, BurstKind.COMPUTE, 0.8)],
            SHORT_CHROME.horizon_ns,
        )
        quiet = collector.collect(site)[0]
        noisy = collector.collect(
            site, noise=NoiseHooks(extra_timelines=(background,))
        )[0]
        assert noisy.to_vector().mean() < quiet.to_vector().mean()


class TestCollect:
    def test_shapes_and_labels(self, collector):
        sites = [profile_for("amazon.com"), profile_for("weather.com")]
        x, labels = collector.collect(sites, traces_per_site=3).stacked()
        assert x.shape == (6, collector.spec.n_samples)
        assert labels == ["amazon.com"] * 3 + ["weather.com"] * 3

    def test_custom_labels(self, collector):
        sites = [profile_for("amazon.com")]
        batch = collector.collect(sites, 2, labels=["custom"])
        _, labels = batch.stacked()
        assert labels == ["custom", "custom"]

    def test_zero_traces_rejected(self, collector):
        with pytest.raises(ValueError):
            collector.collect([profile_for("amazon.com")], 0)

    def test_empty_sites_rejected(self, collector):
        with pytest.raises(ValueError, match="at least one site"):
            collector.collect([], 1)

    def test_label_count_mismatch_rejected(self, collector):
        with pytest.raises(ValueError):
            collector.collect([profile_for("amazon.com")], 1, labels=["a", "b"])

    def test_batch_is_sequence(self, collector, site):
        batch = collector.collect(site, 3)
        assert len(batch) == 3
        assert list(batch)[1] is batch[1]
        tail = batch[1:]
        assert len(tail) == 2 and tail[0] is batch[1]

    def test_cold_collect_builds_one_core_per_trace(self, collector, monkeypatch):
        """The walk reads only the attacker's core; the others stay unbuilt."""
        from repro.sim.machine import InterruptSynthesizer

        calls = []
        build = InterruptSynthesizer._build_core

        def counting(self, batches):
            calls.append(batches)
            return build(self, batches)

        monkeypatch.setattr(InterruptSynthesizer, "_build_core", counting)
        sites = [profile_for("amazon.com"), profile_for("weather.com")]
        collector.collect(sites, traces_per_site=2)
        assert len(calls) == 4

    def test_start_index_continues_sequence(self, collector, site):
        first = collector.collect(site, 2)
        rest = collector.collect(site, 2, start_index=2)
        whole = collector.collect(site, 4)
        for got, want in zip(list(first) + list(rest), whole):
            np.testing.assert_array_equal(got.counters, want.counters)


class TestDeprecatedShimsRemoved:
    """The one-release pre-unification shims are gone for good."""

    @pytest.mark.parametrize(
        "name", ["collect_trace", "collect_traces", "collect_dataset"]
    )
    def test_old_entry_points_no_longer_exist(self, collector, name):
        assert not hasattr(collector, name)

    def test_collect_replaces_every_old_form(self, collector, site):
        single = collector.collect(site, start_index=3)[0]
        several = list(collector.collect(site, 2))
        stacked_x, stacked_labels = collector.collect([site], 2).stacked()
        assert single.counters.size > 0
        assert len(several) == 2
        assert stacked_x.shape[0] == len(stacked_labels) == 2
