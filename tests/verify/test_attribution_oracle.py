"""The ``tracing.attribution`` oracle catches a wrong attribution matrix.

It passes on the real code and fails when the matrix is filled from the
wrong records (each gap's first record dropped), when its rows are
shifted by one gap, or when one window's handler time is off by 1 ns.
"""

import dataclasses

import numpy as np

import repro.verify.oracles
from repro.tracing.ebpf import KprobeTracer
from repro.verify.oracle import Case, get_oracle

SMALL = Case(seed=0, sites=1, traces=1, horizon_ms=100.0)


def _run(case: Case = SMALL):
    return get_oracle("tracing.attribution").run_case(case)


def test_passes():
    for seed in (0, 1, 2):
        assert _run(Case(seed=seed)) is None


def test_dropping_each_gaps_first_record_fails(monkeypatch):
    visible_indices = KprobeTracer.visible_indices

    def without_first(self):
        firsts = np.flatnonzero(np.diff(self.timeline.record_gap_index, prepend=-1))
        return np.setdiff1d(visible_indices(self), firsts)

    monkeypatch.setattr(KprobeTracer, "visible_indices", without_first)
    failure = _run()
    assert failure is not None
    assert failure.startswith("default machine, core 0, full tracer, threshold 100 ns: gap 0 ")


def test_rows_shifted_by_one_gap_fail(monkeypatch):
    attribute_gaps = repro.verify.oracles.attribute_gaps

    def shifted(tracer, threshold_ns):
        report = attribute_gaps(tracer, threshold_ns)
        return dataclasses.replace(report, types=np.roll(report.types, 1, axis=0))

    monkeypatch.setattr(repro.verify.oracles, "attribute_gaps", shifted)
    failure = _run()
    assert failure is not None
    assert "the record scan finds" in failure


def test_one_nanosecond_of_handler_time_fails(monkeypatch):
    handler_time_fraction = KprobeTracer.handler_time_fraction

    def nudged(self, window_ns, types=None):
        times, fraction = handler_time_fraction(self, window_ns, types)
        fraction = fraction.copy()
        fraction[np.argmax(fraction)] += 1.0 / window_ns
        return times, fraction

    monkeypatch.setattr(KprobeTracer, "handler_time_fraction", nudged)
    failure = _run()
    assert failure is not None
    assert "handler_time_fraction" in failure
