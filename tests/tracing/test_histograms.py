"""Tests for interrupt-timing histograms (Figs 5-6 building blocks)."""

import numpy as np
import pytest

from repro.sim.events import MS, US
from repro.sim.interrupts import InterruptType
from repro.tracing.attribution import attribute_every_core, attribute_gaps
from repro.tracing.ebpf import KprobeTracer
from repro.tracing.histograms import (
    FIG6_TYPES,
    gap_length_histograms,
    interrupt_time_series,
    type_coincidence,
)


class TestGapLengthHistograms:
    def test_covers_requested_types(self, nytimes_run):
        histograms = gap_length_histograms(attribute_every_core([nytimes_run]))
        assert set(histograms) == set(FIG6_TYPES)

    def test_meltdown_floor(self, nytimes_run):
        """Fig 6: every interrupt-caused gap exceeds ~1.5 µs."""
        histograms = gap_length_histograms(attribute_every_core([nytimes_run]))
        for hist in histograms.values():
            if hist.n_samples:
                assert hist.min_ns() >= 1.5 * US - 1e-6

    def test_softirq_broader_than_network(self, nytimes_run):
        """Deferred work has a wider handling-time spread (Fig 6)."""
        histograms = gap_length_histograms(attribute_every_core([nytimes_run]))
        softirq = histograms[InterruptType.SOFTIRQ_NET_RX].samples
        network = histograms[InterruptType.NETWORK_RX].samples
        assert softirq.std() > network.std()

    def test_mode_within_histogram_range(self, nytimes_run):
        histograms = gap_length_histograms(attribute_every_core([nytimes_run]))
        timer = histograms[InterruptType.TIMER]
        assert 1.5 * US < timer.mode_ns() < 12 * US

    def test_invalid_binning_rejected(self, nytimes_run):
        with pytest.raises(ValueError):
            gap_length_histograms([], bin_width_ns=0)


class TestTypeCoincidence:
    def test_irq_work_rides_timer_ticks(self, nytimes_run):
        """IRQ work cannot fire alone; most of its gaps hold a tick."""
        coincidence = type_coincidence(
            attribute_every_core([nytimes_run]), InterruptType.IRQ_WORK, InterruptType.TIMER
        )
        assert coincidence > 0.4

    def test_nan_when_type_absent(self, nytimes_run):
        coincidence = type_coincidence(
            [attribute_gaps(KprobeTracer(nytimes_run))],
            InterruptType.SPURIOUS,
            InterruptType.TIMER,
        )
        assert np.isnan(coincidence)


class TestInterruptTimeSeries:
    def test_average_over_runs(self, nytimes_run):
        times, fraction = interrupt_time_series([nytimes_run, nytimes_run])
        assert len(times) == len(fraction)
        assert fraction.max() <= 1.0

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            interrupt_time_series([])

    def test_type_filtering(self, nytimes_run):
        _, total = interrupt_time_series([nytimes_run])
        _, resched = interrupt_time_series(
            [nytimes_run], types=[InterruptType.RESCHED_IPI]
        )
        assert resched.sum() < total.sum()
