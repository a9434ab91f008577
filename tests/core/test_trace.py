"""Tests for trace containers and arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import (
    Trace,
    TraceSpec,
    _forward_fill,
    average_traces,
    stack_dataset,
)
from repro.sim.events import MS


def make_trace(starts, counters, horizon_ms=100, period_ms=10, label="x"):
    return Trace(
        spec=TraceSpec.from_ms(horizon_ms / 1000, period_ms),
        observed_starts=np.array(starts, dtype=float) * MS,
        counters=np.array(counters, dtype=float),
        label=label,
    )


class TestTraceSpec:
    def test_n_samples(self):
        spec = TraceSpec.from_ms(15.0, 5.0)
        assert spec.n_samples == 3000

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSpec(horizon_ns=0, period_ns=1)
        with pytest.raises(ValueError):
            TraceSpec(horizon_ns=10, period_ns=20)


class TestTrace:
    def test_alignment_validated(self):
        with pytest.raises(ValueError):
            make_trace([0, 10], [1.0])

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            make_trace([0], [-1.0])

    def test_to_vector_places_samples(self):
        trace = make_trace([0, 10, 20], [5, 6, 7])
        vector = trace.to_vector()
        assert len(vector) == 10
        assert vector[0] == 5 and vector[1] == 6 and vector[2] == 7

    def test_to_vector_forward_fills(self):
        trace = make_trace([0, 50], [5, 9])
        vector = trace.to_vector()
        assert list(vector[:5]) == [5, 5, 5, 5, 5]
        assert list(vector[5:]) == [9, 9, 9, 9, 9]

    def test_to_vector_backfills_head(self):
        trace = make_trace([30], [4])
        vector = trace.to_vector()
        assert list(vector) == [4.0] * 10

    def test_collisions_last_wins(self):
        """Two samples landing in one cell behave like the paper's
        ``Trace[t_begin] = counter`` array store."""
        trace = make_trace([0, 1, 20], [5, 6, 7])
        vector = trace.to_vector()
        assert vector[0] == 6

    def test_out_of_range_samples_dropped(self):
        trace = make_trace([0, 500], [5, 9])
        vector = trace.to_vector()
        assert vector.max() == 5

    def test_normalized_peak_is_one(self):
        trace = make_trace([0, 10], [10, 20])
        assert trace.normalized().max() == pytest.approx(1.0)

    def test_normalized_all_zero_stays_zero(self):
        trace = make_trace([0], [0])
        assert trace.normalized().max() == 0.0

    def test_empty_trace_vector(self):
        trace = make_trace([], [])
        vector = trace.to_vector()
        assert list(vector) == [0.0] * 10


class TestForwardFill:
    def test_fills_interior(self):
        values = np.array([1.0, np.nan, np.nan, 4.0])
        assert list(_forward_fill(values)) == [1.0, 1.0, 1.0, 4.0]

    def test_all_nan_stays(self):
        values = np.array([np.nan, np.nan])
        assert np.isnan(_forward_fill(values)).all()

    @given(st.lists(st.one_of(st.none(), st.floats(0, 100)), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_no_nans_when_any_value_present(self, values):
        array = np.array([np.nan if v is None else v for v in values])
        if np.isnan(array).all():
            return
        filled = _forward_fill(array)
        assert not np.isnan(filled).any()


class TestAveragingAndCorrelation:
    def test_average_traces(self):
        a = make_trace([0, 10], [10, 20])
        b = make_trace([0, 10], [20, 10])
        mean = average_traces([a, b])
        assert mean[0] == pytest.approx((0.5 + 1.0) / 2)

    def test_average_empty_rejected(self):
        with pytest.raises(ValueError):
            average_traces([])


class TestStackDataset:
    def test_stacks_normalized(self):
        traces = [make_trace([0], [10], label="a"), make_trace([0], [20], label="b")]
        x, labels = stack_dataset(traces)
        assert x.shape == (2, 10)
        assert labels == ["a", "b"]
        assert x.max() == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_dataset([])
