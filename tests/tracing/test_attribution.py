"""Tests for gap ↔ interrupt attribution (§5.2)."""

import numpy as np
import pytest

from repro.sim.interrupts import InterruptType
from repro.tracing.attribution import AttributionReport, attribute_gaps
from repro.tracing.ebpf import KprobeTracer, TracerConfig


class TestAttribution:
    def test_paper_claim_over_99_percent(self, nytimes_run):
        """>99 % of gaps longer than 100 ns are caused by interrupts."""
        report = attribute_gaps(KprobeTracer(nytimes_run))
        assert report.n_gaps > 100
        assert report.attributed_fraction > 0.99

    def test_restricted_tracer_misses_gaps(self, nytimes_run):
        """A tracer that can only see timers cannot explain everything."""
        config = TracerConfig(traceable_types=frozenset({InterruptType.TIMER}))
        report = attribute_gaps(KprobeTracer(nytimes_run, config=config))
        assert report.attributed_fraction < 0.9

    def test_gap_lengths_above_threshold(self, nytimes_run):
        report = attribute_gaps(KprobeTracer(nytimes_run), threshold_ns=1_000.0)
        assert np.all(report.lengths_ns > 1_000.0)

    def test_type_counter_covers_active_types(self, nytimes_run):
        report = attribute_gaps(KprobeTracer(nytimes_run))
        counter = report.type_counter()
        assert counter[InterruptType.TIMER] > 0

    def test_gap_lengths_for_type(self, nytimes_run):
        report = attribute_gaps(KprobeTracer(nytimes_run))
        lengths = report.gap_lengths_for_type(InterruptType.TIMER)
        assert len(lengths) > 0
        assert lengths.min() > report.threshold_ns

    def test_negative_threshold_rejected(self, nytimes_run):
        with pytest.raises(ValueError):
            attribute_gaps(KprobeTracer(nytimes_run), threshold_ns=-1)

    def test_empty_report_fraction_is_one(self):
        report = AttributionReport(
            gap_starts=np.empty(0),
            gap_ends=np.empty(0),
            types=np.zeros((0, len(InterruptType)), dtype=bool),
            threshold_ns=100.0,
        )
        assert report.attributed_fraction == 1.0
