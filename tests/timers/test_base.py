"""Tests for the timer base utilities."""

from repro.timers.base import PreciseTimer


class TestPreciseTimerReset:
    def test_reset_is_noop(self):
        timer = PreciseTimer()
        timer.reset()
        assert timer.read(5.0) == 5.0
