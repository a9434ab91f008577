"""Tests for the attacker-side gap analysis (§5.2 user-space view)."""

import numpy as np
import pytest

from repro.core.analysis import ClockPollingAttacker, analyze_run


class TestClockPollingAttacker:
    def test_observes_long_gaps(self, nytimes_run):
        attacker = ClockPollingAttacker(threshold_ns=100.0)
        gaps = attacker.observe(nytimes_run)
        assert len(gaps) > 100
        assert (gaps.durations() > 100.0).all()
        # Every merged gap above the threshold, and only those.
        merged = nytimes_run.attacker_timeline.gaps
        assert len(gaps) == int((merged.durations() > 100.0).sum())

    def test_higher_threshold_fewer_gaps(self, nytimes_run):
        low = ClockPollingAttacker(threshold_ns=100.0).observe(nytimes_run)
        high = ClockPollingAttacker(threshold_ns=5_000.0).observe(nytimes_run)
        assert len(high) < len(low)

    def test_gap_end(self, nytimes_run):
        gaps = ClockPollingAttacker().observe(nytimes_run)
        merged = nytimes_run.attacker_timeline.gaps
        # Observed gaps are merged gaps, bounds and all.
        index = np.searchsorted(merged.gap_starts, gaps.gap_starts)
        np.testing.assert_array_equal(merged.gap_starts[index], gaps.gap_starts)
        np.testing.assert_array_equal(merged.gap_ends[index], gaps.gap_ends)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            ClockPollingAttacker(threshold_ns=0)


class TestAnalyzeRun:
    def test_joint_analysis(self, nytimes_run):
        analysis = analyze_run(nytimes_run)
        assert analysis.attributed_fraction > 0.99
        assert 0.0 < analysis.stolen_fraction < 0.5
        assert len(analysis.observed_gaps) > 0

    def test_user_and_kernel_views_align(self, nytimes_run):
        """The attacker's observed gaps and the tracer's attributed gaps
        describe the same events (same clock, §5.2)."""
        analysis = analyze_run(nytimes_run)
        assert len(analysis.observed_gaps) == analysis.attribution.n_gaps

    def test_core_override(self, nytimes_run):
        analysis = analyze_run(nytimes_run, core=0)
        assert analysis.stolen_fraction > 0
