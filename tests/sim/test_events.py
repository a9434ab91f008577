"""Tests for the simulation time units."""

from repro.sim.events import MS, SEC, US, seconds_to_ns


class TestUnits:
    def test_constants_are_consistent(self):
        assert SEC == 1000 * MS == 1_000_000 * US

    def test_seconds_to_ns(self):
        assert seconds_to_ns(1.5) == 1_500_000_000
