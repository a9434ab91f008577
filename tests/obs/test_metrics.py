"""Metrics: instruments, histogram bucketing, totals flushing, merging."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro import obs
from repro.engine import ExecutionEngine
from repro.obs import NOOP
from repro.obs.export import merge_spool


def _counted_square(x: int) -> int:
    """Module-level engine task that counts itself."""
    obs.counter("unit.tasks").inc()
    return x * x


def _metric_lines(spool):
    return [
        event
        for path in sorted(spool.glob("obs-*.jsonl"))
        for event in map(json.loads, path.read_text().splitlines())
        if event["type"] == "metrics"
    ]


class TestDisabled:
    def test_accessors_return_shared_noop(self):
        assert obs.counter("x") is NOOP
        assert obs.gauge("y") is NOOP
        assert obs.histogram("z") is NOOP
        obs.counter("x").inc()
        obs.gauge("y").set(3.0)
        obs.histogram("z").observe(1.0)

    def test_flush_is_noop(self):
        assert obs.flush_metrics() is False


class TestInstruments:
    def test_counter_accumulates(self, spool):
        obs.counter("collect.traces").inc()
        obs.counter("collect.traces").inc(4)
        snap = obs.active().snapshot()
        assert snap["counters"]["collect.traces"] == 5

    def test_gauge_last_write_wins(self, spool):
        obs.gauge("engine.jobs").set(2)
        obs.gauge("engine.jobs").set(8)
        assert obs.active().snapshot()["gauges"]["engine.jobs"] == 8.0

    def test_same_name_same_instrument(self, spool):
        assert obs.counter("a") is obs.counter("a")

    def test_kind_conflict_rejected(self, spool):
        obs.counter("dual")
        with pytest.raises(TypeError):
            obs.gauge("dual")

    def test_histogram_bucketing(self, spool):
        hist = obs.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 2.0, 100.0):
            hist.observe(value)
        snap = obs.active().snapshot()["histograms"]["lat"]
        assert snap["buckets"] == [0.1, 1.0, 10.0]
        # <=0.1 gets two (0.05 and the boundary 0.1), 0.5 -> <=1.0,
        # 2.0 -> <=10.0, 100.0 -> overflow.
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(102.65)

    def test_histogram_rejects_unsorted_buckets(self, spool):
        with pytest.raises(ValueError):
            obs.histogram("bad", buckets=(1.0, 0.5))


class TestTotalsFlush:
    def test_flush_writes_running_totals_on_change(self, spool):
        obs.counter("c").inc(3)
        assert obs.flush_metrics() is True
        assert obs.flush_metrics() is False  # nothing moved since
        obs.counter("c").inc(2)
        assert obs.flush_metrics() is True
        assert [event["counters"]["c"] for event in _metric_lines(spool)] == [3, 5]

    def test_serial_engine_spools_one_metrics_line(self, spool):
        # Tasks run in this process leave their totals to disable(): a
        # flush per task would append one full totals line per task.
        ExecutionEngine(jobs=1).map(_counted_square, list(range(6)), stage="unit")
        obs.disable()
        assert [event["counters"]["unit.tasks"] for event in _metric_lines(spool)] == [6]

    def test_pool_workers_flush_their_totals(self, spool):
        results = ExecutionEngine(jobs=2).map(_counted_square, list(range(6)), stage="unit")
        obs.disable()
        assert results == [x * x for x in range(6)]
        assert merge_spool(spool).metrics["counters"] == {"unit.tasks": 6}

    def test_merge_sums_each_process_last_line(self, tmp_path):
        def line(pid, hits, counts, total, **extra):
            histogram = {"buckets": [1.0], "counts": counts, "sum": total,
                         "count": sum(counts)}
            return json.dumps({"type": "metrics", "pid": pid, "counters": {"hits": hits},
                               "histograms": {"h": histogram}, **extra}) + "\n"

        (tmp_path / "obs-1-a.jsonl").write_text(
            line(1, 2, [1, 0], 0.5) + line(1, 5, [1, 2], 4.5)
        )
        (tmp_path / "obs-2-b.jsonl").write_text(
            line(2, 3, [0, 1], 2.0, gauges={"jobs": 4.0})
        )
        merged = merge_spool(tmp_path).metrics
        assert merged["counters"] == {"hits": 8}
        assert merged["gauges"] == {"jobs": 4.0}
        assert merged["histograms"]["h"]["counts"] == [1, 3]
        assert merged["histograms"]["h"]["count"] == 4
        assert merged["histograms"]["h"]["sum"] == pytest.approx(6.5)


class TestConcurrentFlush:
    def test_racing_flushers_never_double_count(self, spool):
        """Totals are taken and written under the recorder's one lock.

        Two racing flushers must never write their totals out of order,
        or a file's last line would be older than the final snapshot.
        Hammer counters and flush from several threads at once: the
        merged total must equal the final snapshot exactly.
        """
        registry = obs.active()
        increments_per_thread = 200
        flusher_rounds = 50

        def incrementer():
            for _ in range(increments_per_thread):
                obs.counter("race.hits").inc()

        def flusher():
            for _ in range(flusher_rounds):
                registry.flush()

        threads = [threading.Thread(target=incrementer) for _ in range(4)]
        threads += [threading.Thread(target=flusher) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        registry.flush()  # spool whatever the racers left behind
        merged = merge_spool(spool).metrics
        total = registry.snapshot()["counters"]["race.hits"]
        assert total == 4 * increments_per_thread
        assert merged["counters"]["race.hits"] == total


    def test_totals_land_in_the_order_taken(self, spool):
        """Each flush takes and writes its totals under the one lock, so
        the spooled counts never go down, however the flushers race."""
        registry = obs.active()
        rounds, workers = 500, 8

        def worker():
            for _ in range(rounds):
                obs.counter("race.hits").inc()
                registry.flush()

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        hits = [event["counters"]["race.hits"] for event in _metric_lines(spool)]
        assert hits == sorted(hits)
        assert hits[-1] == rounds * workers


class TestForkSafety:
    def test_inherited_registry_resets_in_child(self, spool, monkeypatch):
        obs.counter("parent.only").inc(10)
        registry = obs.active()
        # Simulate what a forked worker sees: same object, different pid.
        monkeypatch.setattr(registry, "pid", registry.pid - 1)
        child_registry = obs.active()
        assert child_registry is not registry
        assert child_registry.snapshot()["counters"] == {}
        assert child_registry.spool_dir == registry.spool_dir
