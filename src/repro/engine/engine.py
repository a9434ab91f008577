"""The work scheduler behind parallel experiment execution.

``ExecutionEngine.map`` is deliberately the *only* parallel primitive:
callers pre-compute one task description per unit of work (a (site,
trace-index) pair, a CV fold), each task derives its own RNG stream from
the task description alone, and the engine returns results in input
order.  Under those rules a parallel run is bit-identical to a serial
one — the scheduler never influences the numbers, only the wall clock.

Because every task is a pure function of its description, the scheduler
is also free to *re-execute* tasks: a retry is bit-identical to the
first attempt.  Every failed attempt, inline or in a worker, goes
through one policy, :meth:`ExecutionEngine._retry`: it is recorded as a
structured :class:`TaskError` (stage, task index, attempt, kind, remote
traceback) surfaced through ``timings_snapshot``/``fault_snapshot`` into
the run manifest, and the task is retried until its budget
(``retries`` / ``BIGGERFISH_RETRIES``) is spent, when
:class:`TaskFailedError` is raised.  Only a raised exception backs off
before its retry (capped exponential, deterministic — no jitter).

Dispatch is future-based (one ``submit`` per task, not a
fire-and-forget ``pool.map``), which is what makes fault tolerance
possible.  A parallel round submits every pending task and collects
them in one pass, in task order:

* until the pool breaks or wedges, the pass waits up to the per-task
  timeout (``task_timeout`` / ``BIGGERFISH_TASK_TIMEOUT``) on each
  future; a task that raises is retried, and one that outlives the
  timeout is abandoned and retried;
* a dead worker (``BrokenProcessPool``) breaks the pool, and as many
  abandoned tasks as there are workers wedge it;
* from then on the pass only salvages futures that already finished:
  an unfinished one is charged as ``worker-lost`` if the pool broke and
  requeued free if it wedged, and a task that was never submitted is
  always requeued free;
* after the pass a broken or wedged pool is respawned, a broken one
  only once: if it breaks again the remaining tasks run inline in the
  parent with the attempts they have left.

Worker processes are spawned per ``map`` call via
``concurrent.futures.ProcessPoolExecutor``; tasks and their arguments
must therefore be picklable module-level callables.  Objects holding an
engine handle must drop it when pickled (see
``TraceCollector.__getstate__``) so handles never cross the process
boundary.  The test-only :mod:`repro.engine.faults` hook sabotages tasks
at the top of ``_TimedTask.__call__`` so all of the above is exercised
in CI.
"""

from __future__ import annotations

import dataclasses
import math
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro import obs
from repro.config import read_setting
from repro.engine import faults as engine_faults

#: Environment variable overriding the default worker count.
JOBS_ENV_VAR = "BIGGERFISH_JOBS"
#: Environment variable overriding the per-task retry budget.
RETRIES_ENV_VAR = "BIGGERFISH_RETRIES"
#: Environment variable overriding the per-task timeout (seconds).
TASK_TIMEOUT_ENV_VAR = "BIGGERFISH_TASK_TIMEOUT"

#: Re-execution attempts allowed per task after the first failure.
DEFAULT_RETRIES = 2
#: Base of the deterministic exponential backoff after a task raises.
BACKOFF_S = 0.05
#: Cap on a single backoff sleep.
BACKOFF_CAP_S = 1.0
#: Structured task errors a stage's manifest entry prints (counts cover all).
MAX_RECORDED_ERRORS_PER_STAGE = 100

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class TaskError:
    """One failed attempt at one task, as recorded in the manifest."""

    stage: str
    index: int
    attempt: int
    #: "exception" | "timeout" | "worker-lost"
    kind: str
    error_type: str
    message: str
    #: Remote (or local) traceback tail, best effort.
    where: str = ""

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class TaskFailedError(RuntimeError):
    """A task exhausted its retry budget; carries the final TaskError."""

    def __init__(self, task_error: TaskError):
        self.task_error = task_error
        super().__init__(
            f"task {task_error.index} in stage "
            f"{task_error.stage or '<unnamed>'} failed ({task_error.kind}) "
            f"after {task_error.attempt + 1} attempt(s): "
            f"{task_error.error_type}: {task_error.message}"
        )


@dataclass(frozen=True)
class _TimedTask:
    """Wraps a task function so each task reports its own elapsed time.

    The wrapper times each task where it runs and returns ``(result,
    elapsed_s)``; the parent folds the time into the stage's record, so
    the slowest worker is visible in the manifest, not just the wall
    clock of the whole ``map``.  A task the pool runs (``in_pool``)
    also flushes its worker's metric totals, which is what gets
    worker-side metrics onto disk even though pool teardown skips
    ``atexit``; a task run in the parent leaves its totals to
    :func:`repro.obs.disable`.

    ``index``/``attempt`` identify the attempt for the fault-injection
    hook (consulted before the task function runs, so a sabotaged
    attempt has no side effects to double on retry), and ``in_pool``
    lets it kill or hang only a pool worker.
    """

    fn: Callable
    stage: Optional[str]
    index: int = 0
    attempt: int = 0
    in_pool: bool = False

    def __call__(self, item):
        engine_faults.maybe_inject(self.stage or "", self.index, self.attempt, self.in_pool)
        started = time.perf_counter()
        with obs.span("engine.task", stage=self.stage or ""):
            result = self.fn(item)
        elapsed = time.perf_counter() - started
        if self.in_pool:
            obs.flush_metrics()
        return result, elapsed


@dataclass
class _Stage:
    """What one stage did: wall time, finished tasks, failed attempts.

    The task-time spread is a running min/sum/max, so a record grows
    with its failed attempts only, never with its tasks or ``map``
    calls.  A failed ``map`` leaves exactly the tasks that finished,
    known precisely because dispatch is per task.
    """

    seconds: float = 0.0
    tasks: int = 0
    task_min: float = math.inf
    task_sum: float = 0.0
    task_max: float = 0.0
    errors: List[TaskError] = field(default_factory=list)

    def finish(self, outcome: tuple):
        """Count one finished task's ``(result, elapsed_s)``; its result."""
        result, elapsed = outcome
        self.tasks += 1
        self.task_min = min(self.task_min, elapsed)
        self.task_sum += elapsed
        self.task_max = max(self.task_max, elapsed)
        return result


def _fault_counts(errors: Sequence[TaskError], retries: int) -> Dict[str, int]:
    """Retried, timed-out and lost attempts among ``errors``.

    An attempt was retried exactly when it failed below the budget:
    :meth:`ExecutionEngine._retry` raises on the attempt that spends it.
    """
    return {
        "retries": sum(error.attempt < retries for error in errors),
        "timeouts": sum(error.kind == "timeout" for error in errors),
        "tasks_lost": sum(error.kind == "worker-lost" for error in errors),
    }


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count from an explicit value, ``BIGGERFISH_JOBS``, or 1.

    The default is *serial*: parallelism is opt-in via ``--jobs`` or the
    environment, mirroring the CLI contract.
    """
    return read_setting(jobs, JOBS_ENV_VAR, 1, name="jobs", minimum=1)


def resolve_retries(retries: Optional[int] = None) -> int:
    """Retry budget from an explicit value, ``BIGGERFISH_RETRIES``, or 2."""
    return read_setting(retries, RETRIES_ENV_VAR, DEFAULT_RETRIES, name="retries")


def resolve_task_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-task timeout from an explicit value or ``BIGGERFISH_TASK_TIMEOUT``.

    None (the default) disables the timeout.  The timeout is measured
    from when the scheduler starts waiting on a task, which upper-bounds
    the task's own runtime.
    """
    return read_setting(
        timeout, TASK_TIMEOUT_ENV_VAR, None,
        name="task timeout", convert=float, exclusive=True,
    )


class ExecutionEngine:
    """Fans independent tasks out over worker processes, surviving faults.

    ``jobs=1`` (the default) executes tasks inline — no processes, no
    pickling — so library users pay nothing unless they opt in.  The
    engine also carries the run's :class:`~repro.engine.cache.TraceCache`
    handle (``cache=None`` disables caching) and keeps one record per
    stage for the run manifest: wall clock, finished tasks and their
    time spread, and the :class:`TaskError` of every failed attempt.
    Retries, timeouts and lost tasks are counted from those records;
    pool respawns are the only fault counted on their own.

    Retries are deterministic: tasks are pure functions of their
    descriptions, so a re-executed task is bit-identical, and backoff is
    capped exponential with no jitter.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache=None,
        retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.retries = resolve_retries(retries)
        self.task_timeout = resolve_task_timeout(task_timeout)
        #: Stage name (None for an unnamed ``map``) -> its record since
        #: the last ``reset_timings``.
        self._stages: Dict[Optional[str], _Stage] = {}
        #: Records ``reset_timings`` retired; ``fault_snapshot`` still
        #: counts their failed attempts.
        self._retired: List[_Stage] = []
        self._pool_respawns = 0

    def __repr__(self) -> str:
        cache = "on" if self.cache is not None else "off"
        return (
            f"ExecutionEngine(jobs={self.jobs}, cache={cache}, "
            f"retries={self.retries}, task_timeout={self.task_timeout})"
        )

    # ------------------------------------------------------------------

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        stage: Optional[str] = None,
    ) -> list[R]:
        """Apply ``fn`` to every item, preserving input order.

        With ``jobs > 1`` and more than one item, work is distributed
        over a fresh process pool; otherwise it runs inline.  ``fn`` and
        the items must be picklable for the parallel path.  Failed
        attempts are retried up to ``self.retries`` times; a task that
        exhausts the budget raises :class:`TaskFailedError` with the
        final :class:`TaskError` attached.
        """
        items = list(items)
        task = _TimedTask(fn, stage)
        record = self._stages.setdefault(stage, _Stage())
        started = time.perf_counter()
        try:
            with obs.span(
                "engine.map", stage=stage or "", tasks=len(items), jobs=self.jobs
            ):
                if self.jobs == 1 or len(items) <= 1:
                    return self._map_inline(task, items, record)
                return self._map_parallel(task, items, record)
        finally:
            record.seconds += time.perf_counter() - started

    # -- inline dispatch ------------------------------------------------

    def _map_inline(self, task: _TimedTask, items: list, record: _Stage) -> list:
        return [
            self._run_inline(task, item, index, record)
            for index, item in enumerate(items)
        ]

    def _run_inline(
        self,
        task: _TimedTask,
        item,
        index: int,
        record: _Stage,
        first_attempt: int = 0,
    ):
        """One task in the parent process, with the same retry contract.

        Also the terminal fallback when the worker pool keeps dying:
        ``first_attempt`` carries over the attempts already burned in
        workers so the budget is shared across execution modes.
        """
        attempt = first_attempt
        while True:
            try:
                outcome = dataclasses.replace(task, index=index, attempt=attempt)(item)
            except Exception as error:
                attempt = self._retry(record, task.stage, index, attempt, "exception", error)
            else:
                return record.finish(outcome)

    # -- parallel dispatch ----------------------------------------------

    def _map_parallel(self, task: _TimedTask, items: list, record: _Stage) -> list:
        """Run the tasks on a worker pool, round by round, until all finish.

        Each round submits every pending task, then collects the round
        in one pass over it.  Until the pool breaks (a worker died) or
        wedges (as many tasks abandoned past the timeout as there are
        workers), the pass waits up to ``task_timeout`` on each future.
        After that it only salvages futures that are already done: an
        unfinished future is charged as ``worker-lost`` if the pool
        broke and requeued free if it wedged.  A task that was never
        submitted is always requeued free.  One decision follows the
        pass: respawn a broken or wedged pool, except that a pool that
        broke twice hands its requeued tasks to :meth:`_run_inline`.
        """
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeout

        workers = min(self.jobs, len(items))
        outcomes: list = [None] * len(items)
        attempts = [0] * len(items)
        pending = list(range(len(items)))
        pool = ProcessPoolExecutor(max_workers=workers)
        respawns_left = 1  # broken-pool budget; then fall back inline
        abandoned = 0  # futures left running past their timeout
        try:
            while pending:
                futures = {}
                broken = wedged = False
                for i in pending:
                    try:
                        futures[i] = pool.submit(
                            dataclasses.replace(
                                task, index=i, attempt=attempts[i], in_pool=True
                            ),
                            items[i],
                        )
                    except BrokenExecutor:
                        broken = True
                        break
                requeued = []
                for i in pending:
                    future = futures.get(i)
                    if future is None or (wedged and not broken and not future.done()):
                        requeued.append(i)  # unsubmitted, or behind a wedge: free
                        continue
                    try:
                        if broken and not future.done():
                            raise BrokenExecutor  # lost with its worker
                        outcome = future.result(timeout=self.task_timeout)
                    except FuturesTimeout:
                        abandoned += 1
                        # Every worker may now be stuck on an abandoned
                        # task: stop charging queued tasks with timeouts.
                        wedged = abandoned >= workers
                        kind = "timeout"
                        error: Exception = TimeoutError(
                            f"task exceeded the {self.task_timeout}s task timeout"
                        )
                    except BrokenExecutor:
                        broken = True
                        kind = "worker-lost"
                        error = RuntimeError("worker process died before the task finished")
                    except Exception as exc:
                        kind, error = "exception", exc
                    else:
                        outcomes[i] = record.finish(outcome)
                        continue
                    attempts[i] = self._retry(record, task.stage, i, attempts[i], kind, error)
                    requeued.append(i)
                if broken or wedged:
                    pool.shutdown(wait=False, cancel_futures=True)
                    abandoned = 0
                    if broken and not respawns_left:
                        # The pool died twice: finish inline, sharing the
                        # per-task attempt budget already burned.
                        for i in requeued:
                            outcomes[i] = self._run_inline(
                                task, items[i], i, record, first_attempt=attempts[i]
                            )
                        requeued = []
                    else:
                        if broken:
                            respawns_left -= 1
                        self._pool_respawns += 1
                        pool = ProcessPoolExecutor(max_workers=workers)
                pending = requeued
        finally:
            # Abandoned (timed-out) tasks may still be running; waiting
            # on them would stall the run for exactly the hang we just
            # routed around.
            pool.shutdown(wait=abandoned == 0, cancel_futures=True)
        return outcomes

    # -- fault accounting -----------------------------------------------

    def _retry(
        self,
        record: _Stage,
        stage: Optional[str],
        index: int,
        attempt: int,
        kind: str,
        error: Exception,
    ) -> int:
        """The one failure policy: record, give up or retry.

        Records the failed attempt as a :class:`TaskError` in the
        stage's record, raises :class:`TaskFailedError` once the attempt
        spends the budget, and otherwise returns the next attempt
        number.  Only a raised exception backs off first: a timeout has
        already waited, and a lost task gets a fresh pool.
        """
        failure = TaskError(
            stage=stage or "",
            index=index,
            attempt=attempt,
            kind=kind,
            error_type=type(error).__name__,
            message=str(error),
            where=_error_where(error),
        )
        record.errors.append(failure)
        if attempt >= self.retries:
            raise TaskFailedError(failure) from error
        if kind == "exception":
            time.sleep(min(BACKOFF_CAP_S, BACKOFF_S * 2**attempt))
        return attempt + 1

    def fault_snapshot(self) -> Dict[str, int]:
        """Run-lifetime fault totals (for the manifest's ``faults`` block)."""
        errors = [
            error
            for record in (*self._retired, *self._stages.values())
            for error in record.errors
        ]
        return {
            **_fault_counts(errors, self.retries),
            "pool_respawns": self._pool_respawns,
            "task_errors": len(errors),
        }

    # ------------------------------------------------------------------

    def timings_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Each named stage's record since the last reset (for manifests).

        Stages that saw faults additionally carry ``retries`` /
        ``timeouts`` / ``tasks_lost`` counts and the first
        ``MAX_RECORDED_ERRORS_PER_STAGE`` structured ``task_errors``.
        """
        snapshot = {}
        for stage in sorted(name for name in self._stages if name is not None):
            record = self._stages[stage]
            entry = {"seconds": round(record.seconds, 6), "tasks": record.tasks}
            if record.tasks:
                entry["task_seconds"] = {
                    "min": round(record.task_min, 6),
                    "mean": round(record.task_sum / record.tasks, 6),
                    "max": round(record.task_max, 6),
                }
            for label, count in _fault_counts(record.errors, self.retries).items():
                if count:
                    entry[label] = count
            if record.errors:
                entry["task_errors"] = [
                    error.as_dict()
                    for error in record.errors[:MAX_RECORDED_ERRORS_PER_STAGE]
                ]
            snapshot[stage] = entry
        return snapshot

    def reset_timings(self) -> None:
        """Start fresh stage records; run-lifetime fault totals persist."""
        self._retired.extend(self._stages.values())
        self._stages = {}


def _error_where(error: BaseException) -> str:
    """Best-effort location/traceback tail for a task error.

    Exceptions unpickled from workers carry the remote traceback as a
    ``_RemoteTraceback`` cause; locally raised ones still hold a real
    ``__traceback__``.
    """
    cause = getattr(error, "__cause__", None)
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        lines = [line for line in str(cause).strip().splitlines() if line.strip()]
        return "\n".join(lines[-4:])
    if error.__traceback__ is not None:
        frame = traceback_module.extract_tb(error.__traceback__)[-1]
        return f"{frame.filename}:{frame.lineno}"
    return ""
