"""Tests for handler serialization and gap accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.interrupts import InterruptBatch, InterruptType
from repro.sim.timeline import (
    GAP_MERGE_EPSILON_NS,
    CoreTimeline,
    GapTimeline,
    serialize_handlers,
)


def naive_serialize(arrivals, durations):
    """Reference implementation of serial handler execution."""
    starts, ends = [], []
    busy_until = 0.0
    for arrival, duration in zip(arrivals, durations):
        start = max(arrival, busy_until)
        starts.append(start)
        ends.append(start + duration)
        busy_until = start + duration
    return np.array(starts), np.array(ends)


class TestSerializeHandlers:
    def test_non_overlapping_pass_through(self):
        starts, ends = serialize_handlers(
            np.array([0.0, 100.0]), np.array([10.0, 10.0])
        )
        assert list(starts) == [0.0, 100.0]
        assert list(ends) == [10.0, 110.0]

    def test_backlog_queues(self):
        starts, ends = serialize_handlers(
            np.array([0.0, 1.0, 2.0]), np.array([10.0, 10.0, 10.0])
        )
        assert list(starts) == [0.0, 10.0, 20.0]
        assert list(ends) == [10.0, 20.0, 30.0]

    def test_empty(self):
        starts, ends = serialize_handlers(np.array([]), np.array([]))
        assert len(starts) == 0 and len(ends) == 0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            serialize_handlers(np.array([5.0, 1.0]), np.array([1.0, 1.0]))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.floats(min_value=0, max_value=1e4),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_reference(self, pairs):
        arrivals = np.array(sorted(p[0] for p in pairs))
        durations = np.array([p[1] for p in pairs])
        starts, ends = serialize_handlers(arrivals, durations)
        ref_starts, ref_ends = naive_serialize(arrivals, durations)
        np.testing.assert_allclose(starts, ref_starts, rtol=1e-12, atol=1e-6)
        np.testing.assert_allclose(ends, ref_ends, rtol=1e-12, atol=1e-6)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.floats(min_value=0, max_value=1e4),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, pairs):
        arrivals = np.array(sorted(p[0] for p in pairs))
        durations = np.array([p[1] for p in pairs])
        starts, ends = serialize_handlers(arrivals, durations)
        assert np.all(starts >= arrivals - 1e-6)  # nothing starts before arrival
        np.testing.assert_allclose(ends - starts, durations, atol=1e-6)
        assert np.all(starts[1:] >= ends[:-1] - 1e-6)  # serial execution


class TestGapTimeline:
    def make(self):
        return GapTimeline(np.array([10.0, 50.0, 100.0]), np.array([20.0, 70.0, 101.0]))

    def test_total_stolen(self):
        assert self.make().total_stolen_ns == pytest.approx(31.0)

    def test_stolen_before(self):
        gaps = self.make()
        assert gaps.stolen_before(5.0) == 0.0
        assert gaps.stolen_before(15.0) == pytest.approx(5.0)
        assert gaps.stolen_before(20.0) == pytest.approx(10.0)
        assert gaps.stolen_before(60.0) == pytest.approx(20.0)
        assert gaps.stolen_before(1_000.0) == pytest.approx(31.0)

    def test_stolen_before_vectorized(self):
        gaps = self.make()
        result = gaps.stolen_before(np.array([5.0, 15.0, 60.0]))
        np.testing.assert_allclose(result, [0.0, 5.0, 20.0])

    def test_stolen_between(self):
        gaps = self.make()
        assert gaps.stolen_between(15.0, 55.0) == pytest.approx(10.0)

    def test_stolen_between_reversed_raises(self):
        with pytest.raises(ValueError, match="reversed"):
            self.make().stolen_between(10.0, 5.0)

    def test_executed_between(self):
        gaps = self.make()
        assert gaps.executed_between(0.0, 100.0) == pytest.approx(70.0)

    def test_gap_index_at(self):
        gaps = self.make()
        assert gaps.gap_index_at(15.0) == 0
        assert gaps.gap_index_at(5.0) == -1
        assert gaps.gap_index_at(20.0) == -1  # end is exclusive

    def test_next_execution_time(self):
        gaps = self.make()
        assert gaps.next_execution_time(15.0) == 20.0
        assert gaps.next_execution_time(30.0) == 30.0

    def test_empty_timeline(self):
        gaps = GapTimeline.empty()
        assert gaps.total_stolen_ns == 0.0
        assert gaps.stolen_before(100.0) == 0.0
        assert gaps.next_execution_time(5.0) == 5.0
        assert gaps.gap_index_at(5.0) == -1

    def test_rejects_overlapping_gaps(self):
        with pytest.raises(ValueError, match="disjoint"):
            GapTimeline(np.array([0.0, 5.0]), np.array([10.0, 15.0]))

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="non-negative"):
            GapTimeline(np.array([10.0]), np.array([5.0]))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.floats(min_value=0.1, max_value=1e3),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=0, max_value=2e6),
        st.floats(min_value=0, max_value=2e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_stolen_between_matches_bruteforce(self, pairs, a, b):
        # Build disjoint gaps from sorted cumulative positions.
        pairs.sort()
        starts, ends = [], []
        cursor = 0.0
        for offset, length in pairs:
            start = cursor + offset
            starts.append(start)
            ends.append(start + length)
            cursor = start + length
        gaps = GapTimeline(np.array(starts), np.array(ends))
        t0, t1 = min(a, b), max(a, b)
        brute = sum(
            max(0.0, min(e, t1) - max(s, t0)) for s, e in zip(starts, ends)
        )
        assert gaps.stolen_between(t0, t1) == pytest.approx(brute, abs=1e-6)


class TestCoreTimeline:
    def build(self, arrivals, durations, itype=InterruptType.TIMER):
        batch = InterruptBatch(itype, np.array(arrivals), np.array(durations))
        return CoreTimeline.from_batches([batch])

    def test_isolated_records_have_own_gaps(self):
        core = self.build([0.0, 1000.0, 2000.0], [10.0, 10.0, 10.0])
        assert len(core.gaps) == 3

    def test_adjacent_records_merge(self):
        core = self.build([0.0, 5.0, 8.0], [10.0, 10.0, 10.0])
        assert len(core.gaps) == 1
        assert core.gaps.gap_starts[0] == 0.0
        assert core.gaps.gap_ends[0] == pytest.approx(30.0)

    def test_merge_epsilon(self):
        """Records closer than the epsilon merge into one observed gap."""
        eps = GAP_MERGE_EPSILON_NS
        core = self.build([0.0, 10.0 + eps / 2], [10.0, 5.0])
        assert len(core.gaps) == 1
        core2 = self.build([0.0, 10.0 + 2 * eps], [10.0, 5.0])
        assert len(core2.gaps) == 2

    def test_record_gap_index(self):
        core = self.build([0.0, 5.0, 1000.0], [10.0, 10.0, 10.0])
        assert list(core.record_gap_index) == [0, 0, 1]
        assert list(core.records_in_gap(0)) == [0, 1]

    def test_records_materialization(self):
        core = self.build([0.0, 3.0], [10.0, 4.0], itype=InterruptType.DISK)
        assert len(core) == 2
        assert core.arrivals[1] == pytest.approx(3.0)
        assert core.starts[1] == pytest.approx(10.0)  # queued behind first
        assert core.ends[1] - core.starts[1] == pytest.approx(4.0)
        assert core.itypes() == [InterruptType.DISK, InterruptType.DISK]

    def test_mixed_batches_sorted(self):
        tick = InterruptBatch(InterruptType.TIMER, [100.0], [5.0])
        net = InterruptBatch(InterruptType.NETWORK_RX, [50.0], [5.0])
        core = CoreTimeline.from_batches([tick, net])
        assert core.itypes() == [InterruptType.NETWORK_RX, InterruptType.TIMER]

    def test_empty_core(self):
        core = CoreTimeline.from_batches([])
        assert len(core) == 0
        assert len(core.gaps) == 0
