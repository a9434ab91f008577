"""Tests for IRQ routing policies and softirq placement."""

import numpy as np
import pytest

from repro.sim.routing import (
    AffinitySourceRouting,
    PinnedRouting,
    SoftirqPlacement,
)


class TestAffinityRouting:
    def test_source_sticks_to_one_core(self, rng):
        policy = AffinitySourceRouting(4)
        targets = policy.route_source("nic0", 100, rng)
        assert len(set(targets.tolist())) == 1

    def test_stable_across_calls(self, rng):
        policy = AffinitySourceRouting(4)
        a = policy.route_source("nic0", 5, rng)
        b = policy.route_source("nic0", 5, rng)
        assert a[0] == b[0]

    def test_different_sources_can_differ(self, rng):
        policy = AffinitySourceRouting(8)
        cores = {
            int(policy.route_source(f"dev{i}", 1, rng)[0]) for i in range(40)
        }
        assert len(cores) > 1

    def test_core_for_in_range(self):
        policy = AffinitySourceRouting(4)
        for i in range(50):
            assert 0 <= policy.core_for(f"source{i}") < 4

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            AffinitySourceRouting(0)


class TestPinnedRouting:
    def test_everything_to_target(self, rng):
        policy = PinnedRouting(4, target_core=0)
        targets = policy.route_source("whatever", 50, rng)
        assert set(targets.tolist()) == {0}

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            PinnedRouting(4, target_core=4)


class TestSoftirqPlacement:
    def test_follow_probability_one_follows_trigger(self, rng):
        placement = SoftirqPlacement(follow_probability=1.0)
        triggers = np.array([2] * 100)
        assert set(placement.place(triggers, 4, rng).tolist()) == {2}

    def test_follow_probability_zero_spreads(self, rng):
        placement = SoftirqPlacement(follow_probability=0.0)
        triggers = np.array([0] * 2000)
        cores = placement.place(triggers, 4, rng)
        assert set(cores.tolist()) == {0, 1, 2, 3}

    def test_non_movable_leakage_to_other_cores(self, rng):
        """Even with IRQs pinned to core 0, softirqs reach other cores —
        the mechanism behind Takeaway 5."""
        placement = SoftirqPlacement(follow_probability=0.6)
        triggers = np.zeros(5000, dtype=np.int64)  # irqbalanced to core 0
        cores = placement.place(triggers, 4, rng)
        attacker_share = np.mean(cores == 1)
        assert attacker_share > 0.05

    def test_validates_probability(self):
        with pytest.raises(ValueError):
            SoftirqPlacement(follow_probability=1.5)
