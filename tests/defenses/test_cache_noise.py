"""Tests for the cache-sweep noise countermeasure."""

import pytest

from repro.defenses.cache_noise import CacheSweepNoise
from repro.sim.events import SEC
from repro.workload.phases import BurstKind

HORIZON = 5 * SEC


class TestCacheSweepNoise:
    def test_hooks_cover_whole_trace(self):
        hooks = CacheSweepNoise().hooks(HORIZON)
        assert len(hooks.extra_timelines) == 1
        sweeping = hooks.extra_timelines[0]
        assert sweeping.bursts[0].duration_ns == HORIZON
        assert sweeping.bursts[0].kind is BurstKind.MEMORY

    def test_occupancy_floor_set(self):
        hooks = CacheSweepNoise(occupancy_floor=0.6).hooks(HORIZON)
        assert hooks.occupancy_floor == 0.6

    def test_no_interrupt_injection(self):
        """The cache defender generates memory traffic, not interrupts —
        which is exactly why it fails to stop either attack (Table 2)."""
        hooks = CacheSweepNoise().hooks(HORIZON)
        assert hooks.interrupt_injector is None
        assert hooks.load_stretch == 1.0

    def test_cpu_footprint_is_small(self):
        noise = CacheSweepNoise()
        assert noise.cpu_intensity < 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheSweepNoise(occupancy_floor=1.5)
        with pytest.raises(ValueError):
            CacheSweepNoise(cpu_intensity=0.0)
