"""Micro-batching fingerprinting inference server.

Classifying one trace at a time wastes the vectorized kernels every
backend is built from: a Conv1D over a batch of 32 traces costs barely
more than over one.  :class:`FingerprintServer` exploits that by
queueing incoming requests and draining them in batches — take up to
``max_batch`` queued requests for one model and trace length, run
**one** ``predict_proba`` call, and fan the rows back out to the
waiting callers.  Batching is work-conserving, as in Clipper's adaptive
batching (Crankshaw et al., NSDI 2017): an idle worker dispatches
whatever is queued at once and never waits for stragglers, and the
requests that arrive while a batch computes form the next one, so
batches fill under load without delaying a lone request.  Because every
layer in both backends is row-independent, the batched probabilities
are bit-identical to one-at-a-time calls — the tests assert this, and
it is what makes the batcher safe to put in front of the paper's
evaluation.

Operational behavior:

* **Backpressure** — the queue is bounded (``max_queue``); requests
  beyond it fail fast with ``overloaded`` instead of growing latency
  without bound.
* **Deadlines** — a request may carry ``deadline_ms``; if it is still
  queued when its deadline passes it resolves as ``deadline`` and never
  occupies a batch slot.
* **Structured errors** — every failure is a :class:`PredictResult`
  with ``ok=False`` and an ``error`` code from :data:`ERROR_CODES`;
  exceptions never propagate to other requests in the batch's queue.
  A model that fails to load or to classify (a truncated
  ``weights.npz``, rows of the wrong length) answers its batch with
  ``model_error`` and the exception's text, and the worker goes on to
  the next batch.
* **One completion per call** — the requests of one :meth:`submit` or
  :meth:`~FingerprintServer.predict_many` call share one completion,
  set when the last of them resolves, so a bulk call wakes once, not
  once per request.  ``submit`` returns a handle whose
  ``done.wait(timeout)`` returns whether it was answered in time and
  whose ``result`` holds the answer.
* **Observability** — queue depth, batch sizes, error counts and each
  served request's queue wait, compute time and their sum are exported
  through :mod:`repro.obs` (``serve.queue_ms``, ``serve.compute_ms``,
  ``serve.latency_ms``), and every batch runs under a ``serve.batch``
  span.

``max_batch`` defaults to 32 requests and ``max_queue`` to 256.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.serve.registry import LoadedModel, ModelRegistry

#: Every way a request can fail, as stable machine-readable codes.
ERROR_CODES = ("overloaded", "deadline", "model_error", "bad_input", "shutdown")


@dataclass(frozen=True)
class PredictResult:
    """Outcome of one prediction request.

    ``ok`` requests carry the winning ``label``, its ``confidence`` and
    the full probability row; failed ones carry an ``error`` code from
    :data:`ERROR_CODES` plus a human-readable ``detail``.
    ``batch_size`` records how many requests shared the model call,
    ``wait_ms`` how long this one spent queued (from submission to the
    start of that call) and ``compute_ms`` how long the call took — all
    observability aids, not part of the prediction.
    """

    ok: bool
    label: Optional[str] = None
    confidence: float = 0.0
    probs: Optional[np.ndarray] = None
    error: Optional[str] = None
    detail: str = ""
    batch_size: int = 0
    wait_ms: float = 0.0
    compute_ms: float = 0.0


def _failure(code: str, detail: str = "", wait_ms: float = 0.0) -> PredictResult:
    assert code in ERROR_CODES
    obs.counter(f"serve.errors.{code}").inc()
    return PredictResult(ok=False, error=code, detail=detail, wait_ms=wait_ms)


class _Completion:
    """Set once every request of one ``submit`` or ``predict_many`` call
    has resolved.

    A countdown over a latch: a lock held from creation and released by
    the last resolution, so a waiter blocks in one ``acquire`` and wakes
    once, and a one-request completion costs less than a
    ``threading.Event``.  The caller resolves its own failures and the
    worker the rest, so the count has a lock of its own.
    """

    __slots__ = ("_unresolved", "_lock", "_latch")

    def __init__(self, requests: int):
        self._unresolved = requests
        self._lock = threading.Lock()
        self._latch = threading.Lock()
        if requests:
            self._latch.acquire()

    def resolve_one(self) -> None:
        with self._lock:
            self._unresolved -= 1
            last = self._unresolved == 0
        if last:
            self._latch.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the call completes, or ``timeout`` seconds pass;
        whether it completed."""
        if self._unresolved == 0:
            return True  # without queueing behind a waiter passing the latch
        if timeout is None:
            acquired = self._latch.acquire()
        else:
            acquired = self._latch.acquire(timeout=max(timeout, 0.0))
        if acquired:
            self._latch.release()  # every later wait passes too
        return acquired


@dataclass
class _Pending:
    """One request: its vector, and ``done``, the completion it shares
    with the rest of its call."""

    vector: np.ndarray
    model: str
    enqueued: float
    deadline: Optional[float]  # absolute time.monotonic(), or None
    done: _Completion = field(default_factory=lambda: _Completion(1))
    result: Optional[PredictResult] = None

    def resolve(self, result: PredictResult) -> None:
        """Answer the request; one already answered keeps its answer."""
        if self.result is None:
            self.result = result
            self.done.resolve_one()


class FingerprintServer:
    """Batched inference over a :class:`~repro.serve.registry.ModelRegistry`.

    ``predict`` blocks the calling thread until its request's batch has
    been served; many threads calling concurrently is exactly the load
    shape that fills batches.  Use as a context manager or call
    :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        default_model: Optional[str] = None,
        max_batch: int = 32,
        max_queue: int = 256,
    ):
        for name, value in (("max_batch", max_batch), ("max_queue", max_queue)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        names = registry.names()
        if default_model is None:
            if len(names) == 1:
                default_model = names[0]
            elif not names:
                raise ValueError("registry has no models")
        if default_model is not None and default_model not in registry:
            raise KeyError(f"default model {default_model!r} not registered")
        self.registry = registry
        self.default_model = default_model
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._queue: "deque[_Pending]" = deque()
        self._cond = threading.Condition()
        self._running = False
        self._worker: Optional[threading.Thread] = None
        #: Times the batching worker woke from its idle wait.  An idle
        #: server must not wake at all between requests — the regression
        #: test pins this to zero across an idle window.
        self.worker_wakeups = 0

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "FingerprintServer":
        with self._cond:
            if self._running:
                return self
            self._running = True
            self._worker = threading.Thread(
                target=self._serve_loop, name="biggerfish-serve", daemon=True
            )
            self._worker.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting requests and drain the queue.

        Already-queued requests are still served (their deadlines
        permitting); new submissions fail with ``shutdown``.
        """
        with self._cond:
            if not self._running:
                return
            self._running = False
            worker, self._worker = self._worker, None
            self._cond.notify_all()
        # Join outside the lock: the worker needs self._cond to drain.
        if worker is not None:
            worker.join(timeout)

    def __enter__(self) -> "FingerprintServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    # ------------------------------------------------------------------
    # request path

    def submit(
        self,
        vector,
        *,
        model: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> _Pending:
        """Enqueue one trace vector; returns its handle.

        ``handle.done.wait(timeout)`` returns True once the request is
        answered (False if ``timeout`` seconds pass first), and
        ``handle.result`` then holds the :class:`PredictResult`.
        """
        return self._enqueue([vector], model, deadline_ms)[0]

    def predict(
        self,
        vector,
        *,
        model: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> PredictResult:
        """Classify one trace vector (blocks until served)."""
        pending = self.submit(vector, model=model, deadline_ms=deadline_ms)
        pending.done.wait()
        return pending.result

    def predict_many(
        self,
        vectors: Sequence,
        *,
        model: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> List[PredictResult]:
        """Submit many vectors at once, wait for all results.

        The vectors join the queue together and in order, so the worker
        packs them into full batches of ``max_batch`` — the natural
        bulk-classification entry point.  Those that do not fit in the
        queue fail with ``overloaded``, and they are always the last.
        The call waits once, on the completion all its requests share.
        """
        handles = self._enqueue(vectors, model, deadline_ms)
        if handles:
            handles[0].done.wait()
        return [handle.result for handle in handles]

    def _enqueue(
        self, vectors: Sequence, model: Optional[str], deadline_ms: Optional[float]
    ) -> List[_Pending]:
        """Validate ``vectors`` and queue the valid ones in order.

        The lock is taken and the worker notified once per call, so the
        worker sees every vector of the call at the same time.  Every
        handle of the call shares one completion.
        """
        now = time.monotonic()
        name = model if model is not None else self.default_model
        problem = self._request_problem(name, deadline_ms)
        deadline = None
        if deadline_ms is not None and problem is None:
            deadline = now + deadline_ms / 1000.0
        done = _Completion(len(vectors))
        handles = [
            self._validated(vector, name, now, deadline, problem, done) for vector in vectors
        ]
        obs.counter("serve.requests").inc(len(handles))
        with self._cond:
            queued = 0
            for pending in handles:
                if pending.result is not None:
                    continue
                if not self._running:
                    pending.resolve(_failure("shutdown", "server is not running"))
                elif len(self._queue) >= self.max_queue:
                    pending.resolve(
                        _failure("overloaded", f"queue full ({self.max_queue})")
                    )
                else:
                    self._queue.append(pending)
                    queued += 1
            if queued:
                obs.gauge("serve.queue_depth").set(len(self._queue))
                self._cond.notify()
        return handles

    def _request_problem(self, name, deadline_ms) -> Optional[str]:
        """Why a request's model or ``deadline_ms`` is unusable, or None.

        JSON requests carry whatever the client sent: a list as the
        model name, a string, ``true`` or ``NaN`` as the deadline.  Each
        is a ``bad_input`` answer, never a crash or a deadline that can
        never pass.
        """
        if not isinstance(name, str) or name not in self.registry:
            return f"unknown model {name!r}"
        if deadline_ms is None:
            return None
        if isinstance(deadline_ms, numbers.Real) and not isinstance(deadline_ms, bool):
            with contextlib.suppress(OverflowError):  # an int too large for a float
                if math.isfinite(deadline_ms):
                    return None
        return f"deadline_ms must be a finite number, got {deadline_ms!r}"

    def _validated(
        self,
        vector,
        name,
        now: float,
        deadline: Optional[float],
        problem: Optional[str],
        done: _Completion,
    ) -> _Pending:
        """A handle for one request, already resolved as ``bad_input`` when
        its fields have a ``problem`` or its vector is not a finite 1-D
        trace."""
        model = name if problem is None else ""
        pending = _Pending(np.empty(0), model, now, deadline, done)
        if problem is not None:
            pending.resolve(_failure("bad_input", problem))
            return pending
        try:
            array = np.asarray(vector, dtype=np.float64)
            if array.ndim != 1 or array.size == 0:
                raise ValueError(f"expected a 1-D trace vector, got shape {array.shape}")
            if not np.isfinite(array).all():
                raise ValueError("trace vector contains NaN or infinity")
        except (TypeError, ValueError) as exc:
            pending.resolve(_failure("bad_input", str(exc)))
            return pending
        pending.vector = array
        return pending

    # ------------------------------------------------------------------
    # batching worker

    def _serve_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._run_batch(batch)

    def _next_batch(self) -> Optional[List[_Pending]]:
        """Block for the next batch; None when stopped and drained.

        Work-conserving: the worker never waits while a request is
        queued.  It takes the oldest request together with every queued
        request for the same model and length, up to ``max_batch``, and
        runs them at once; requests that arrive while that batch
        computes form the next one.  The only wait is the idle one, a
        plain notify-driven ``Condition.wait()`` — ``submit`` and
        ``stop`` notify, so an idle server makes zero wakeups between
        requests.
        """
        with self._cond:
            while not self._queue:
                if not self._running:
                    return None
                self._cond.wait()
                self.worker_wakeups += 1
            first = self._queue[0]
            batch = self._take_matching_locked(
                first.model, len(first.vector), self.max_batch
            )
            obs.gauge("serve.queue_depth").set(len(self._queue))
        return batch

    def _take_matching_locked(
        self, model: str, length: int, budget: int
    ) -> List[_Pending]:
        """Pop up to ``budget`` queued requests for ``model`` whose vectors
        have ``length`` samples (in order).

        A batch is one ``predict_proba`` call over stacked rows, so its
        vectors must share a length.  Other requests keep their relative
        order and stay queued for a later batch.  Caller holds the lock.
        """
        taken: List[_Pending] = []
        kept: List[_Pending] = []
        while self._queue and len(taken) < budget:
            pending = self._queue.popleft()
            matches = pending.model == model and len(pending.vector) == length
            (taken if matches else kept).append(pending)
        for pending in reversed(kept):
            self._queue.appendleft(pending)
        return taken

    def _run_batch(self, batch: List[_Pending]) -> None:
        """Serve one batch; whatever it raises answers the requests it left
        unanswered with ``model_error``, and the worker serves on."""
        now = time.monotonic()
        live: List[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and now > pending.deadline:
                pending.resolve(
                    _failure(
                        "deadline",
                        f"expired after {(now - pending.enqueued) * 1000.0:.1f} ms in queue",
                        wait_ms=(now - pending.enqueued) * 1000.0,
                    )
                )
            else:
                live.append(pending)
        if not live:
            return
        try:
            self._serve(live)
        except Exception as exc:  # noqa: BLE001 - every failure becomes a result
            detail = f"{type(exc).__name__}: {exc}"
            for pending in live:
                if pending.result is None:
                    pending.resolve(_failure("model_error", detail))

    def _serve(self, live: List[_Pending]) -> None:
        """Load the batch's model, classify its rows in one call and answer
        each request with its row."""
        model_name = live[0].model
        loaded = self.registry.get(model_name)
        obs.counter("serve.batches").inc()
        obs.histogram("serve.batch_size").observe(float(len(live)))
        started = time.monotonic()
        with obs.span("serve.batch", model=model_name, size=len(live)):
            probs = self._classify(loaded, [p.vector for p in live])
        compute_ms = (time.monotonic() - started) * 1000.0
        # One sample per served request in each histogram, so a request's
        # latency is its queue wait plus its batch's compute time.
        queue_hist = obs.histogram("serve.queue_ms")
        compute_hist = obs.histogram("serve.compute_ms")
        latency_hist = obs.histogram("serve.latency_ms")
        for pending, row in zip(live, probs):
            index = int(row.argmax())
            if loaded.classes is not None and index < len(loaded.classes):
                label = loaded.classes[index]
            else:
                label = str(index)
            wait_ms = (started - pending.enqueued) * 1000.0
            queue_hist.observe(wait_ms)
            compute_hist.observe(compute_ms)
            latency_hist.observe(wait_ms + compute_ms)
            pending.resolve(
                PredictResult(
                    ok=True,
                    label=label,
                    confidence=float(row[index]),
                    probs=row,
                    batch_size=len(live),
                    wait_ms=wait_ms,
                    compute_ms=compute_ms,
                )
            )

    @staticmethod
    def _classify(loaded: LoadedModel, vectors: List[np.ndarray]) -> np.ndarray:
        lengths = {len(v) for v in vectors}
        if len(lengths) != 1:
            raise ValueError(f"mixed trace lengths in batch: {sorted(lengths)}")
        x = np.stack(vectors)
        probs = loaded.model.predict_proba(x)
        if probs.shape[0] != len(vectors):
            raise ValueError(
                f"model returned {probs.shape[0]} rows for {len(vectors)} requests"
            )
        return probs


__all__ = [
    "ERROR_CODES",
    "FingerprintServer",
    "PredictResult",
]
