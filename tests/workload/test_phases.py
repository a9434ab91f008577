"""Tests for activity bursts and timelines."""

import numpy as np
import pytest

from repro.sim.events import SEC
from repro.workload.phases import (
    KIND_PROFILES,
    ActivityBurst,
    ActivityTimeline,
    BurstKind,
    merge_timelines,
)


def burst(start_s, dur_s, kind=BurstKind.NETWORK, intensity=0.5):
    return ActivityBurst(
        start_ns=start_s * SEC, duration_ns=dur_s * SEC, kind=kind, intensity=intensity
    )


class TestActivityBurst:
    def test_end_ns(self):
        b = burst(1.0, 2.0)
        assert b.end_ns == pytest.approx(3.0 * SEC)

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            ActivityBurst(0, 0, BurstKind.NETWORK, 0.5)

    def test_rejects_bad_intensity(self):
        with pytest.raises(ValueError):
            ActivityBurst(0, 1, BurstKind.NETWORK, 0.0)
        with pytest.raises(ValueError):
            ActivityBurst(0, 1, BurstKind.NETWORK, 1.5)


class TestKindProfiles:
    def test_every_kind_has_profile(self):
        assert set(KIND_PROFILES) == set(BurstKind)

    def test_memory_bursts_generate_no_irqs(self):
        assert KIND_PROFILES[BurstKind.MEMORY].irq_rate_hz == 0.0

    def test_compute_is_cpu_heaviest(self):
        compute_load = KIND_PROFILES[BurstKind.COMPUTE].cpu_load
        assert all(
            compute_load >= profile.cpu_load for profile in KIND_PROFILES.values()
        )


class TestActivityTimeline:
    def test_sorted_on_construction(self):
        timeline = ActivityTimeline([burst(3, 1), burst(1, 1)], 10 * SEC)
        starts = [b.start_ns for b in timeline]
        assert starts == sorted(starts)

    def test_of_kind(self):
        timeline = ActivityTimeline(
            [burst(0, 1), burst(1, 1, kind=BurstKind.RENDER)], 10 * SEC
        )
        assert len(timeline.of_kind(BurstKind.RENDER)) == 1

    def test_load_zero_outside_bursts(self):
        timeline = ActivityTimeline([burst(1, 1)], 10 * SEC)
        assert timeline.load_at(0.5 * SEC) == 0.0
        assert timeline.load_at(5 * SEC) == 0.0

    def test_load_during_burst(self):
        timeline = ActivityTimeline([burst(1, 1, intensity=1.0)], 10 * SEC)
        expected = KIND_PROFILES[BurstKind.NETWORK].cpu_load
        assert timeline.load_at(1.5 * SEC) == pytest.approx(expected)

    def test_load_sums_and_saturates(self):
        bursts = [burst(0, 1, kind=BurstKind.COMPUTE, intensity=1.0) for _ in range(5)]
        timeline = ActivityTimeline(bursts, 10 * SEC)
        assert timeline.load_at(0.5 * SEC) == 1.0

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            ActivityTimeline([], 0)


class TestOccupancyCurve:
    def test_bounded(self):
        timeline = ActivityTimeline(
            [burst(1, 2, kind=BurstKind.MEMORY, intensity=1.0)], 10 * SEC
        )
        _, occupancy = timeline.occupancy_curve()
        assert occupancy.min() >= 0.0
        assert occupancy.max() <= 1.0

    def test_rises_during_memory_burst(self):
        timeline = ActivityTimeline(
            [burst(1, 3, kind=BurstKind.MEMORY, intensity=1.0)], 10 * SEC
        )
        times, occupancy = timeline.occupancy_curve()
        during = occupancy[(times > 2 * SEC) & (times < 4 * SEC)].max()
        before = occupancy[times < 0.9 * SEC].max()
        assert during > before + 0.3

    def test_decays_after_burst(self):
        timeline = ActivityTimeline(
            [burst(0.5, 1, kind=BurstKind.MEMORY, intensity=1.0)], 10 * SEC
        )
        times, occupancy = timeline.occupancy_curve()
        peak = occupancy[(times > 1 * SEC) & (times < 1.6 * SEC)].max()
        tail = occupancy[times > 8 * SEC].max()
        assert tail < peak / 2

    def test_network_bursts_do_not_raise_occupancy(self):
        timeline = ActivityTimeline([burst(1, 2, intensity=1.0)], 10 * SEC)
        _, occupancy = timeline.occupancy_curve()
        assert occupancy.max() < 0.05

    def test_render_contributes_partially(self):
        memory = ActivityTimeline(
            [burst(1, 2, kind=BurstKind.MEMORY, intensity=1.0)], 10 * SEC
        )
        render = ActivityTimeline(
            [burst(1, 2, kind=BurstKind.RENDER, intensity=1.0)], 10 * SEC
        )
        _, occ_memory = memory.occupancy_curve()
        _, occ_render = render.occupancy_curve()
        assert 0 < occ_render.max() < occ_memory.max()


class TestMergeTimelines:
    def test_merges_bursts(self):
        a = ActivityTimeline([burst(0, 1)], 5 * SEC)
        b = ActivityTimeline([burst(2, 1)], 8 * SEC)
        merged = merge_timelines([a, b])
        assert len(merged) == 2
        assert merged.horizon_ns == 8 * SEC

    def test_explicit_horizon(self):
        a = ActivityTimeline([burst(0, 1)], 5 * SEC)
        merged = merge_timelines([a], horizon_ns=20 * SEC)
        assert merged.horizon_ns == 20 * SEC

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_timelines([])
