"""Tests for the eBPF-style kernel tracer."""

import numpy as np
import pytest

from repro.sim.events import MS
from repro.sim.interrupts import InterruptType
from repro.tracing.ebpf import KprobeTracer, TracerConfig


class TestKprobeTracer:
    def test_traces_attacker_core_by_default(self, nytimes_run):
        tracer = KprobeTracer(nytimes_run)
        assert tracer.core_index == nytimes_run.config.attacker_core

    def test_out_of_range_core_rejected(self, nytimes_run):
        with pytest.raises(ValueError):
            KprobeTracer(nytimes_run, core=9)

    def test_full_visibility_by_default(self, nytimes_run):
        tracer = KprobeTracer(nytimes_run)
        assert len(tracer) == len(nytimes_run.attacker_timeline)

    def test_restricted_visibility(self, nytimes_run):
        """Pre-5.11 kernels restrict which functions are traceable."""
        config = TracerConfig(traceable_types=frozenset({InterruptType.TIMER}))
        tracer = KprobeTracer(nytimes_run, config=config)
        assert 0 < len(tracer) < len(nytimes_run.attacker_timeline)
        _, _, codes = tracer.handler_windows()
        assert len(codes) == len(tracer)
        assert (codes == list(InterruptType).index(InterruptType.TIMER)).all()

    def test_log_in_time_order(self, nytimes_run):
        tracer = KprobeTracer(nytimes_run)
        starts, ends, _ = tracer.handler_windows()
        arrivals = tracer.timeline.arrivals[tracer.visible_indices()]
        assert (np.diff(arrivals) >= 0).all()
        assert (np.diff(starts) >= 0).all() and (np.diff(ends) >= 0).all()

    def test_handler_time_by_type_sums_to_total(self, nytimes_run):
        tracer = KprobeTracer(nytimes_run)
        by_type = tracer.handler_time_by_type()
        timeline = nytimes_run.attacker_timeline
        total = float((timeline.ends - timeline.starts).sum())
        assert sum(by_type.values()) == pytest.approx(total)


class TestHandlerTimeFraction:
    def test_fractions_bounded(self, nytimes_run):
        tracer = KprobeTracer(nytimes_run)
        _, fraction = tracer.handler_time_fraction(100 * MS)
        assert fraction.min() >= 0.0
        assert fraction.max() <= 1.0

    def test_total_consistent_with_stolen_time(self, nytimes_run):
        tracer = KprobeTracer(nytimes_run)
        times, fraction = tracer.handler_time_fraction(100 * MS)
        busy_total = float(fraction.sum() * 100 * MS)
        timeline = nytimes_run.attacker_timeline
        handler_total = float((timeline.ends - timeline.starts).sum())
        assert busy_total == pytest.approx(handler_total, rel=0.05)

    def test_type_filter_reduces(self, nytimes_run):
        tracer = KprobeTracer(nytimes_run)
        _, all_types = tracer.handler_time_fraction(100 * MS)
        _, timers_only = tracer.handler_time_fraction(
            100 * MS, types=[InterruptType.TIMER]
        )
        assert timers_only.sum() < all_types.sum()

    def test_invalid_window_rejected(self, nytimes_run):
        with pytest.raises(ValueError):
            KprobeTracer(nytimes_run).handler_time_fraction(0)
