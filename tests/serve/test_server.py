"""Tests for the micro-batching fingerprint server."""

import threading
import time

import numpy as np
import pytest

from repro.serve.registry import ModelRegistry
from repro.serve.server import (
    ERROR_CODES,
    MAX_BATCH_ENV_VAR,
    MAX_WAIT_ENV_VAR,
    QUEUE_ENV_VAR,
    FingerprintServer,
)


class TestBatchingCorrectness:
    def test_batched_equals_direct(self, registry, model, dataset):
        """The acceptance criterion: one predict_proba over the batch is
        bit-identical to direct evaluation, row for row."""
        x, _ = dataset
        direct = model.predict_proba(x)
        with FingerprintServer(registry, max_batch=8, max_wait_ms=20.0) as server:
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
        with FingerprintServer(registry, max_batch=1, max_wait_ms=0.0) as server:
            singles = [server.predict(row) for row in x[:8]]
        with FingerprintServer(registry, max_batch=8, max_wait_ms=20.0) as server:
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
        with FingerprintServer(registry, max_batch=8, max_wait_ms=50.0) as server:
            results = server.predict_many(list(x[:8]))
        assert all(r.ok for r in results)
        # predict_many submits everything before waiting, so the worker
        # can pack full batches (>1 proves fan-in happened).
        assert max(r.batch_size for r in results) > 1


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

    def test_shutdown_rejects_new_requests(self, registry, dataset):
        x, _ = dataset
        server = FingerprintServer(registry)
        server.start()
        server.stop()
        result = server.predict(x[0])
        assert not result.ok and result.error == "shutdown"

    def test_expired_deadline(self, registry, dataset):
        x, _ = dataset
        with FingerprintServer(registry, max_wait_ms=30.0) as server:
            result = server.predict(x[0], deadline_ms=-1.0)
        assert not result.ok and result.error == "deadline"
        assert "queue" in result.detail

    def test_mixed_lengths_become_model_error(self, registry):
        with FingerprintServer(registry, max_batch=2, max_wait_ms=200.0) as server:
            short = server.submit(np.ones(60))
            long = server.submit(np.ones(120))
            short.done.wait()
            long.done.wait()
        codes = {short.result.error, long.result.error}
        assert codes == {"model_error"}
        assert "mixed trace lengths" in short.result.detail

    def test_wrong_length_for_lstm_model_fails(self, lstm_artifact_dir, dataset):
        x, _ = dataset
        registry = ModelRegistry()
        registry.add("default", lstm_artifact_dir)
        with FingerprintServer(registry, max_wait_ms=0.0) as server:
            good = server.predict(x[0])
            short = server.predict(x[0][:90])
        assert good.ok
        assert not short.ok and short.error == "model_error"
        assert "120 samples" in short.detail and "(1, 90)" in short.detail

    def test_backpressure_overloaded(self, registry, dataset):
        x, _ = dataset
        loaded = registry.get("default")
        release = threading.Event()
        original = loaded.model.predict_proba

        def slow(batch):
            release.wait(5.0)
            return original(batch)

        loaded.model.predict_proba = slow
        try:
            server = FingerprintServer(
                registry, max_batch=1, max_wait_ms=0.0, max_queue=2
            )
            with server:
                handles = [server.submit(x[0]) for _ in range(12)]
                overloaded = [
                    h for h in handles if h.result is not None
                    and h.result.error == "overloaded"
                ]
                assert overloaded, "bounded queue never pushed back"
                release.set()
                for handle in handles:
                    handle.done.wait(10.0)
            served = [h for h in handles if h.result.ok]
            assert served, "queued requests should still be served"
        finally:
            loaded.model.predict_proba = original


class TestConfiguration:
    def test_env_var_defaults(self, registry, monkeypatch):
        monkeypatch.setenv(MAX_BATCH_ENV_VAR, "7")
        monkeypatch.setenv(MAX_WAIT_ENV_VAR, "3.5")
        monkeypatch.setenv(QUEUE_ENV_VAR, "99")
        server = FingerprintServer(registry)
        assert server.max_batch == 7
        assert server.max_wait_ms == 3.5
        assert server.max_queue == 99

    def test_explicit_args_override_env(self, registry, monkeypatch):
        monkeypatch.setenv(MAX_BATCH_ENV_VAR, "7")
        server = FingerprintServer(registry, max_batch=3)
        assert server.max_batch == 3

    def test_bad_env_value_raises(self, registry, monkeypatch):
        monkeypatch.setenv(MAX_BATCH_ENV_VAR, "many")
        with pytest.raises(ValueError, match=MAX_BATCH_ENV_VAR):
            FingerprintServer(registry)

    def test_invalid_limits_rejected(self, registry):
        with pytest.raises(ValueError):
            FingerprintServer(registry, max_batch=0)
        with pytest.raises(ValueError):
            FingerprintServer(registry, max_wait_ms=-1.0)
        with pytest.raises(ValueError):
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
        with FingerprintServer(registry, max_wait_ms=0.0) as server:
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

