"""Tests for the micro-batching fingerprint server."""

import json
import shutil
import statistics
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.ml.artifact import load_artifact
from repro.serve.registry import ModelRegistry
from repro.serve.server import (
    ERROR_CODES,
    FingerprintServer,
    PredictResult,
    _Completion,
    _Pending,
)


class _Gate:
    """The registry model's ``predict_proba``, with its first call held
    until ``release`` is set; ``sizes`` records each call's row count."""

    def __init__(self, registry):
        self.loaded = registry.get("default")
        self.original = self.loaded.model.predict_proba
        self.entered = threading.Event()
        self.release = threading.Event()
        self.sizes = []

    def __call__(self, batch):
        self.sizes.append(len(batch))
        if len(self.sizes) == 1:
            self.entered.set()
            self.release.wait(5.0)
        return self.original(batch)


@pytest.fixture()
def gate(registry):
    gate = _Gate(registry)
    gate.loaded.model.predict_proba = gate
    yield gate
    gate.release.set()
    gate.loaded.model.predict_proba = gate.original


class TestBatchingCorrectness:
    def test_batched_equals_direct(self, registry, model, dataset):
        """The acceptance criterion: one predict_proba over the batch is
        bit-identical to direct evaluation, row for row."""
        x, _ = dataset
        direct = model.predict_proba(x)
        with FingerprintServer(registry, max_batch=8) as server:
            results = server.predict_many(list(x))
        assert all(r.ok for r in results)
        np.testing.assert_array_equal(direct, np.stack([r.probs for r in results]))

    def test_batched_equals_one_at_a_time(self, registry, dataset):
        """Same labels and probabilities whether requests ride alone or
        share a batch.  Probabilities agree to float precision, not
        bit-exactly: a 1-row and an 8-row matmul may sum in different
        orders inside BLAS.  (Bit-exactness against a same-shape direct
        call is asserted in test_batched_equals_direct.)"""
        x, _ = dataset
        with FingerprintServer(registry, max_batch=1) as server:
            singles = [server.predict(row) for row in x[:8]]
        with FingerprintServer(registry, max_batch=8) as server:
            batched = server.predict_many(list(x[:8]))
        for single, multi in zip(singles, batched):
            assert single.label == multi.label
            np.testing.assert_allclose(
                single.probs, multi.probs, rtol=1e-9, atol=0.0
            )

    def test_labels_come_from_artifact_classes(self, registry, model, dataset):
        x, _ = dataset
        direct = model.predict_proba(x[:4]).argmax(axis=1)
        with FingerprintServer(registry) as server:
            results = server.predict_many(list(x[:4]))
        from tests.serve.conftest import CLASSES

        assert [r.label for r in results] == [CLASSES[i] for i in direct]

    def test_requests_actually_batch(self, registry, dataset):
        x, _ = dataset
        with FingerprintServer(registry, max_batch=8) as server:
            results = server.predict_many(list(x[:8]))
        assert all(r.ok for r in results)
        # predict_many queues everything before waiting, so the worker
        # can pack full batches (>1 proves fan-in happened).
        assert max(r.batch_size for r in results) > 1

    def test_other_lengths_batch_apart(self, legacy_artifact_dir, dataset):
        """A request of another length waits for a batch of its own
        instead of failing the batch it would have joined.  Only a model
        that records no training length (an artifact saved before feature
        models recorded it) classifies rows of several lengths."""
        x, _ = dataset
        registry = ModelRegistry()
        registry.add("default", legacy_artifact_dir)
        model = load_artifact(legacy_artifact_dir)
        with FingerprintServer(registry, max_batch=8) as server:
            results = server.predict_many([x[0], x[1][:90], x[2]])
        assert all(r.ok for r in results)
        assert [r.batch_size for r in results] == [2, 1, 2]
        same_length = model.predict_proba(np.stack([x[0], x[2]]))
        np.testing.assert_array_equal(results[0].probs, same_length[0])
        np.testing.assert_array_equal(results[2].probs, same_length[1])
        np.testing.assert_array_equal(
            results[1].probs, model.predict_proba(x[1][:90][None])[0]
        )


class TestWorkConserving:
    def test_lone_request_is_not_held(self, registry, dataset):
        """An idle worker dispatches a lone request at once; no batching
        window delays it."""
        x, _ = dataset
        with FingerprintServer(registry) as server:
            assert server.predict(x[0]).ok  # load the model
            round_trips = []
            for row in x[:20]:
                started = time.perf_counter()
                assert server.predict(row).ok
                round_trips.append(time.perf_counter() - started)
        assert statistics.median(round_trips) < 0.002

    def test_arrivals_during_compute_form_the_next_batch(self, registry, dataset, gate):
        x, _ = dataset
        with FingerprintServer(registry, max_batch=8) as server:
            lone = server.submit(x[0])
            assert gate.entered.wait(5.0)
            queued = [server.submit(row) for row in x[1:4]]
            gate.release.set()
            for handle in [lone, *queued]:
                assert handle.done.wait(5.0)
        assert gate.sizes == [1, 3]
        assert lone.result.batch_size == 1
        assert [h.result.batch_size for h in queued] == [3, 3, 3]

    def test_concurrent_callers_each_get_their_rows(self, registry, model, dataset):
        """Six threads, half calling ``predict`` row by row and half
        ``predict_many``, with a short switch interval: every request is
        answered, with its own row's label."""
        x, _ = dataset
        expected = list(model.predict_proba(x).argmax(axis=1))
        answers = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with FingerprintServer(registry, max_batch=4) as server:

                def client(k):
                    if k % 2:
                        answers[k] = server.predict_many(list(x))
                    else:
                        answers[k] = [server.predict(row) for row in x]

                threads = [threading.Thread(target=client, args=(k,)) for k in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(answers) == list(range(6))
        for results in answers.values():
            assert all(r.ok for r in results)
            assert [int(r.probs.argmax()) for r in results] == expected

    def test_predict_many_refuses_only_the_overflow(self, registry, dataset):
        x, _ = dataset
        with FingerprintServer(registry, max_queue=8) as server:
            results = server.predict_many(list(x[:11]))
        assert [r.ok for r in results] == [True] * 8 + [False] * 3
        assert {r.error for r in results[8:]} == {"overloaded"}


@pytest.fixture()
def slowed(registry, monkeypatch):
    """The registry model's ``predict_proba``, 20 ms slower per call;
    ``finished`` records when each call returned."""
    loaded = registry.get("default")
    original = loaded.model.predict_proba
    finished = []

    def slow(batch):
        time.sleep(0.02)
        probs = original(batch)
        finished.append(time.monotonic())
        return probs

    monkeypatch.setattr(loaded.model, "predict_proba", slow)
    return finished


class TestCompletion:
    """The requests of one call share one completion, set by the last."""

    def test_predict_many_handles_share_one_completion(self, registry, dataset, monkeypatch):
        x, _ = dataset
        calls = []
        enqueue = FingerprintServer._enqueue

        def recorded(self, *args):
            calls.append(enqueue(self, *args))
            return calls[-1]

        monkeypatch.setattr(FingerprintServer, "_enqueue", recorded)
        with FingerprintServer(registry, max_batch=4) as server:
            results = server.predict_many(list(x[:10]))
            single = server.submit(x[0])
            assert single.done.wait(5.0)
        handles, _ = calls
        assert all(handle.done is handles[0].done for handle in handles)
        assert single.done is not handles[0].done
        assert [handle.result for handle in handles] == results
        assert max(r.batch_size for r in results) == 4

    def test_empty_predict_many_returns_at_once(self, registry):
        with FingerprintServer(registry) as server:
            started = time.monotonic()
            assert server.predict_many([]) == []
        assert time.monotonic() - started < 1.0

    def test_mixed_call_waits_for_its_last_queued_request(
        self, registry, artifact_dir, dataset, slowed
    ):
        """Bad vectors, valid ones and more valid ones than the queue
        holds, in one call: every result comes back in order, and only
        once the last queued request was served."""
        x, _ = dataset
        vectors = [x[0], np.full(120, np.nan), x[1], x[2], x[3], [], x[4], x[5], x[6]]
        with FingerprintServer(registry, max_batch=1, max_queue=5) as server:
            results = server.predict_many(vectors)
            returned = time.monotonic()
        assert [r.error for r in results] == [
            None, "bad_input", None, None, None, "bad_input", None, "overloaded", "overloaded",
        ]
        assert len(slowed) == 5 and returned >= slowed[-1]
        model = load_artifact(artifact_dir)
        for index, row in zip((0, 2, 3, 4, 6), x[:5]):
            np.testing.assert_array_equal(results[index].probs, model.predict_proba(row[None])[0])

    def test_submit_handle_waits_with_a_timeout(self, registry, dataset, gate):
        x, _ = dataset
        with FingerprintServer(registry) as server:
            first = server.submit(x[0])
            assert gate.entered.wait(5.0)
            second = server.submit(x[1])
            assert second.done.wait(0.01) is False
            assert first.done.wait(0.01) is False
            assert second.result is None
            gate.release.set()
            assert second.done.wait(5.0) is True
            assert first.done.wait(5.0) is True
            assert second.done.wait(0.0) is True  # it stays complete
        assert first.result.ok and second.result.ok

    def test_resolving_twice_cannot_complete_the_call_early(self):
        done = _Completion(2)
        first, second = (_Pending(np.ones(3), "default", 0.0, None, done) for _ in range(2))
        answer = PredictResult(ok=False, error="shutdown")
        first.resolve(answer)
        first.resolve(PredictResult(ok=False, error="deadline"))
        assert done.wait(0.01) is False
        assert first.result is answer
        second.resolve(answer)
        assert done.wait(0.01) is True


class TestModelFailures:
    """A model that fails answers its batch with ``model_error``; the
    worker lives on and serves the next batch."""

    def test_model_that_fails_to_load(self, artifact_dir, dataset, tmp_path):
        x, _ = dataset
        broken = tmp_path / "broken"
        shutil.copytree(artifact_dir, broken)
        weights = broken / "weights.npz"
        weights.write_bytes(weights.read_bytes()[:100])
        registry = ModelRegistry()
        registry.add("broken", broken)
        registry.add("good", artifact_dir)
        with FingerprintServer(registry, default_model="broken") as server:
            handle = server.submit(x[0])
            assert handle.done.wait(3.0)
            assert handle.result.error == "model_error"
            assert "ArtifactError" in handle.result.detail
            assert server._worker.is_alive()
            assert server.predict(x[0], model="good").ok
            results = server.predict_many(list(x[:3]))
        assert [r.error for r in results] == ["model_error"] * 3

    def test_model_whose_rows_cannot_be_read(self, registry, dataset, monkeypatch):
        """One number per row passes the row-count check and fails in the
        fan-out."""
        x, _ = dataset
        loaded = registry.get("default")
        monkeypatch.setattr(loaded.model, "predict_proba", lambda batch: np.zeros(len(batch)))
        with FingerprintServer(registry, max_batch=2) as server:
            handles = [server.submit(row) for row in x[:3]]
            assert all(handle.done.wait(3.0) for handle in handles)
            assert server._worker.is_alive()
        assert {h.result.error for h in handles} == {"model_error"}
        assert "IndexError" in handles[0].result.detail


class TestTimings:
    def test_wait_and_compute_are_timed_apart(self, registry, dataset, gate):
        """``wait_ms`` ends where the model call starts; ``compute_ms`` is
        that call."""
        x, _ = dataset
        with FingerprintServer(registry, max_batch=8) as server:
            first = server.submit(x[0])
            assert gate.entered.wait(5.0)
            queued = [server.submit(row) for row in x[1:4]]
            time.sleep(0.05)
            gate.release.set()
            for handle in [first, *queued]:
                assert handle.done.wait(5.0)
        assert first.result.compute_ms >= 50.0
        assert first.result.wait_ms < 50.0
        assert all(h.result.wait_ms >= 50.0 for h in queued)
        assert all(h.result.compute_ms < first.result.compute_ms for h in queued)

    def test_timings_reach_the_histograms(self, registry, dataset, tmp_path, monkeypatch):
        """One sample per served request in each histogram, and a
        request's latency is its queue wait plus its compute time."""
        x, _ = dataset
        monkeypatch.delenv(obs.PROFILE_DIR_ENV_VAR, raising=False)
        obs.enable(tmp_path / "spool")
        try:
            with FingerprintServer(registry, max_batch=4) as server:
                results = server.predict_many(list(x[:10]))
            histograms = obs.active().snapshot()["histograms"]
        finally:
            obs.disable()
        assert all(r.ok for r in results)
        queue, compute = histograms["serve.queue_ms"], histograms["serve.compute_ms"]
        assert queue["count"] == compute["count"] == 10
        assert queue["sum"] == pytest.approx(sum(r.wait_ms for r in results))
        assert compute["sum"] == pytest.approx(sum(r.compute_ms for r in results))
        latency = histograms["serve.latency_ms"]
        assert latency["count"] == 10
        assert latency["sum"] == pytest.approx(queue["sum"] + compute["sum"])


    def test_served_batch_records_ml_predict(self, registry, dataset, tmp_path, monkeypatch):
        """The model call is an ``ml.predict`` span inside its
        ``serve.batch`` span."""
        x, _ = dataset
        monkeypatch.delenv(obs.PROFILE_DIR_ENV_VAR, raising=False)
        spool = obs.enable(tmp_path / "spool")
        try:
            with FingerprintServer(registry, max_batch=4) as server:
                assert all(r.ok for r in server.predict_many(list(x[:4])))
        finally:
            obs.disable()
        lines = [
            json.loads(line)
            for path in sorted(spool.glob("*.jsonl"))
            for line in path.read_text().splitlines()
        ]
        spans = {e["span_id"]: e for e in lines if e["type"] == "span"}
        (predict,) = [e for e in spans.values() if e["name"] == "ml.predict"]
        assert predict["attrs"] == {"backend": "feature", "rows": 4}
        assert spans[predict["parent_id"]]["name"] == "serve.batch"


class TestErrorPaths:
    def test_error_codes_catalog(self):
        assert set(ERROR_CODES) == {
            "overloaded", "deadline", "model_error", "bad_input", "shutdown",
        }

    def test_bad_input_shapes(self, registry, dataset):
        x, _ = dataset
        with FingerprintServer(registry) as server:
            assert server.predict(np.ones((2, 3))).error == "bad_input"
            assert server.predict([]).error == "bad_input"
            nan = np.full(120, np.nan)
            assert server.predict(nan).error == "bad_input"
            assert server.predict(x[0], model="nope").error == "bad_input"

    @pytest.mark.parametrize(
        "fields",
        [
            {"deadline_ms": "x"},
            {"deadline_ms": float("nan")},
            {"deadline_ms": float("inf")},
            {"deadline_ms": True},
            {"deadline_ms": [5]},
            {"deadline_ms": 10**400},
            {"model": ["x"]},
            {"model": 3},
        ],
        ids=["deadline-str", "deadline-nan", "deadline-inf", "deadline-bool",
             "deadline-list", "deadline-huge-int", "model-list", "model-int"],
    )
    def test_malformed_fields_are_bad_input(self, registry, dataset, fields):
        x, _ = dataset
        with FingerprintServer(registry) as server:
            assert server.predict(x[0], **fields).error == "bad_input"
            assert server.submit(x[0], **fields).result.error == "bad_input"
            results = server.predict_many(x[:3], **fields)
            assert [r.error for r in results] == ["bad_input"] * 3
            assert server.predict(x[0]).ok  # the server keeps serving

    def test_numeric_deadlines_still_accepted(self, registry, dataset):
        x, _ = dataset
        with FingerprintServer(registry) as server:
            assert server.predict(x[0], deadline_ms=10_000).ok
            assert server.predict(x[0], deadline_ms=np.float64(10_000.0)).ok

    def test_shutdown_rejects_new_requests(self, registry, dataset):
        x, _ = dataset
        server = FingerprintServer(registry)
        server.start()
        server.stop()
        result = server.predict(x[0])
        assert not result.ok and result.error == "shutdown"

    def test_expired_deadline(self, registry, dataset):
        x, _ = dataset
        with FingerprintServer(registry) as server:
            result = server.predict(x[0], deadline_ms=-1.0)
        assert not result.ok and result.error == "deadline"
        assert "queue" in result.detail

    def test_mixed_lengths_become_model_error(self, registry):
        """The server batches by length, so a mixed batch can only reach
        the model through a batching bug; the guard still fails it whole."""
        server = FingerprintServer(registry)
        batch = [
            _Pending(np.ones(n), "default", time.monotonic(), None) for n in (60, 120)
        ]
        server._run_batch(batch)
        assert {p.result.error for p in batch} == {"model_error"}
        assert "mixed trace lengths" in batch[0].result.detail

    def test_wrong_length_for_lstm_model_fails(self, lstm_artifact_dir, dataset):
        x, _ = dataset
        registry = ModelRegistry()
        registry.add("default", lstm_artifact_dir)
        with FingerprintServer(registry) as server:
            good = server.predict(x[0])
            short = server.predict(x[0][:90])
        assert good.ok
        assert not short.ok and short.error == "model_error"
        assert "120 samples" in short.detail and "(1, 90)" in short.detail

    def test_wrong_length_for_feature_model_fails(self, registry, dataset):
        x, _ = dataset
        with FingerprintServer(registry) as server:
            good = server.predict(x[0])
            short = server.predict(x[0][:90])
        assert good.ok
        assert not short.ok and short.error == "model_error"
        assert "120 samples" in short.detail and "(1, 90)" in short.detail

    def test_wrong_length_fails_only_itself(self, lstm_artifact_dir, dataset):
        x, _ = dataset
        registry = ModelRegistry()
        registry.add("default", lstm_artifact_dir)
        with FingerprintServer(registry, max_batch=8) as server:
            results = server.predict_many([x[0], x[1][:90], x[2]])
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error == "model_error"
        assert [results[0].batch_size, results[2].batch_size] == [2, 2]

    def test_backpressure_overloaded(self, registry, dataset, gate):
        x, _ = dataset
        with FingerprintServer(registry, max_batch=1, max_queue=2) as server:
            handles = [server.submit(x[0]) for _ in range(12)]
            overloaded = [
                h for h in handles if h.result is not None
                and h.result.error == "overloaded"
            ]
            assert overloaded, "bounded queue never pushed back"
            gate.release.set()
            for handle in handles:
                handle.done.wait(10.0)
        served = [h for h in handles if h.result.ok]
        assert served, "queued requests should still be served"


class TestConfiguration:
    def test_default_limits(self, registry):
        server = FingerprintServer(registry)
        assert (server.max_batch, server.max_queue) == (32, 256)

    def test_invalid_limits_rejected(self, registry):
        with pytest.raises(ValueError, match="max_batch must be >= 1"):
            FingerprintServer(registry, max_batch=0)
        with pytest.raises(ValueError, match="max_queue must be >= 1"):
            FingerprintServer(registry, max_queue=0)

    def test_empty_registry_rejected(self):
        from repro.serve.registry import ModelRegistry

        with pytest.raises(ValueError, match="no models"):
            FingerprintServer(ModelRegistry())

    def test_unknown_default_model_rejected(self, registry):
        with pytest.raises(KeyError):
            FingerprintServer(registry, default_model="nope")

    def test_single_model_becomes_default(self, registry):
        assert FingerprintServer(registry).default_model == "default"

    def test_start_is_idempotent(self, registry, dataset):
        x, _ = dataset
        server = FingerprintServer(registry)
        try:
            assert server.start() is server.start()
            assert server.predict(x[0]).ok
        finally:
            server.stop()
        server.stop()  # double-stop is a no-op


class TestWorkerWakeups:
    def test_idle_server_never_wakes(self, registry, dataset):
        """Notify-driven waiting: zero worker wakeups across an idle window.

        The worker's idle wait used to be ``wait(0.1)`` — a 10 Hz poll
        that woke the thread to re-check an empty queue.  With untimed
        condition waits the only wakeups are notifies from ``submit``
        and ``stop``, so an idle stretch must add exactly none.
        """
        x, _ = dataset
        with FingerprintServer(registry) as server:
            assert server.predict(x[0]).ok  # drain startup activity
            baseline = server.worker_wakeups
            time.sleep(0.35)  # >3 poll periods of the old 100 ms loop
            assert server.worker_wakeups == baseline
            assert server.predict(x[1]).ok  # still responsive afterwards

    def test_stop_unblocks_the_idle_worker(self, registry):
        server = FingerprintServer(registry).start()
        started = time.monotonic()
        server.stop(timeout=5.0)
        # An un-notified untimed wait would hang until the join timeout.
        assert time.monotonic() - started < 1.0

