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
#: Structured task errors kept per stage (totals keep counting past it).
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
    """Wraps a task function so workers report their own elapsed time.

    ``engine.map`` used to time only the ``map()`` call, which hides the
    per-task distribution — the slowest worker was invisible.  The
    wrapper times each task where it runs and returns ``(result,
    elapsed_s)``; the parent unpacks results and folds the timings into
    the stage statistics.  It also flushes the worker's metric totals
    after every task, which is what gets worker-side observability data
    onto disk even though pool teardown skips ``atexit``.

    ``index``/``attempt`` identify the attempt for the fault-injection
    hook (consulted before the task function runs, so a sabotaged
    attempt has no side effects to double on retry).
    """

    fn: Callable
    stage: Optional[str]
    index: int = 0
    attempt: int = 0

    def __call__(self, item):
        engine_faults.maybe_inject(self.stage or "", self.index, self.attempt)
        started = time.perf_counter()
        with obs.span("engine.task", stage=self.stage or ""):
            result = self.fn(item)
        elapsed = time.perf_counter() - started
        obs.flush_metrics()
        return result, elapsed


@dataclass
class _MapProgress:
    """Mutable per-``map``-call record of what actually finished.

    Shared with the dispatch helpers so the exception path can record
    *completed* work — a failed run's manifest must not claim the whole
    stage ran.
    """

    completed: int = 0
    task_seconds: List[float] = field(default_factory=list)

    def note(self, elapsed: float) -> None:
        self.completed += 1
        self.task_seconds.append(elapsed)


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
    handle (``cache=None`` disables caching) and accumulates per-stage
    wall-clock timings plus fault counters (retries, timeouts, lost
    tasks, structured errors) for the run manifest.

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
        #: Stage name -> cumulative wall-clock seconds spent in map().
        self.stage_seconds: Dict[str, float] = {}
        #: Stage name -> cumulative *completed* task count.
        self.stage_tasks: Dict[str, int] = {}
        #: Stage name -> per-task elapsed statistics (min/sum/max/count).
        self.stage_task_stats: Dict[str, Dict[str, float]] = {}
        #: Stage name -> re-executed attempts.
        self.stage_retries: Dict[str, int] = {}
        #: Stage name -> attempts abandoned past the per-task timeout.
        self.stage_timeouts: Dict[str, int] = {}
        #: Stage name -> attempts lost to dead worker processes.
        self.stage_tasks_lost: Dict[str, int] = {}
        #: Stage name -> structured records of every failed attempt.
        self.stage_errors: Dict[str, List[TaskError]] = {}
        #: Run-lifetime fault totals (survive ``reset_timings``).
        self.fault_totals: Dict[str, int] = {
            "retries": 0,
            "timeouts": 0,
            "tasks_lost": 0,
            "pool_respawns": 0,
            "task_errors": 0,
        }

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
        progress = _MapProgress()
        started = time.perf_counter()
        try:
            with obs.span(
                "engine.map", stage=stage or "", tasks=len(items), jobs=self.jobs
            ):
                if self.jobs == 1 or len(items) <= 1:
                    outcomes = self._map_inline(task, items, progress)
                else:
                    outcomes = self._map_parallel(task, items, progress)
        except BaseException:
            # A failed stage records only the work that actually
            # finished — precisely known because dispatch is per-task.
            if stage is not None:
                self.record(
                    stage,
                    time.perf_counter() - started,
                    progress.completed,
                    task_seconds=progress.task_seconds or None,
                )
            raise
        if stage is not None:
            self.record(
                stage,
                time.perf_counter() - started,
                len(items),
                task_seconds=[elapsed for _, elapsed in outcomes],
            )
        return [result for result, _ in outcomes]

    # -- inline dispatch ------------------------------------------------

    def _map_inline(
        self, task: _TimedTask, items: list, progress: _MapProgress
    ) -> list:
        return [
            self._run_inline(task, item, index, progress)
            for index, item in enumerate(items)
        ]

    def _run_inline(
        self,
        task: _TimedTask,
        item,
        index: int,
        progress: _MapProgress,
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
                attempt = self._retry(task.stage, index, attempt, "exception", error)
            else:
                progress.note(outcome[1])
                return outcome

    # -- parallel dispatch ----------------------------------------------

    def _map_parallel(
        self, task: _TimedTask, items: list, progress: _MapProgress
    ) -> list:
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
                            dataclasses.replace(task, index=i, attempt=attempts[i]),
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
                        outcomes[i] = outcome
                        progress.note(outcome[1])
                        continue
                    attempts[i] = self._retry(task.stage, i, attempts[i], kind, error)
                    requeued.append(i)
                if broken or wedged:
                    pool.shutdown(wait=False, cancel_futures=True)
                    abandoned = 0
                    if broken and not respawns_left:
                        # The pool died twice: finish inline, sharing the
                        # per-task attempt budget already burned.
                        for i in requeued:
                            outcomes[i] = self._run_inline(
                                task, items[i], i, progress, first_attempt=attempts[i]
                            )
                        requeued = []
                    else:
                        if broken:
                            respawns_left -= 1
                        self.fault_totals["pool_respawns"] += 1
                        obs.counter("engine.pool_respawns").inc()
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
        stage: Optional[str],
        index: int,
        attempt: int,
        kind: str,
        error: Exception,
    ) -> int:
        """The one failure policy: record, give up or retry.

        Records the failed attempt as a :class:`TaskError` (a timeout or
        lost task is also tallied as such), raises
        :class:`TaskFailedError` once the attempt spends the budget, and
        otherwise counts the retry and returns the next attempt number.
        Only a raised exception backs off first: a timeout has already
        waited, and a lost task gets a fresh pool.
        """
        record = self._record_error(stage, index, attempt, kind, error)
        if kind == "timeout":
            self._account(self.stage_timeouts, "timeouts", stage, "engine.task_timeouts")
        elif kind == "worker-lost":
            self._account(self.stage_tasks_lost, "tasks_lost", stage, "engine.tasks_lost")
        if attempt >= self.retries:
            raise TaskFailedError(record) from error
        self._account(self.stage_retries, "retries", stage, "engine.retries")
        if kind == "exception":
            time.sleep(min(BACKOFF_CAP_S, BACKOFF_S * 2**attempt))
        return attempt + 1

    def _account(
        self, per_stage: Dict[str, int], total_key: str, stage: Optional[str], counter: str
    ) -> None:
        key = stage or ""
        per_stage[key] = per_stage.get(key, 0) + 1
        self.fault_totals[total_key] += 1
        obs.counter(counter).inc()

    def _record_error(
        self,
        stage: Optional[str],
        index: int,
        attempt: int,
        kind: str,
        error: BaseException,
    ) -> TaskError:
        record = TaskError(
            stage=stage or "",
            index=index,
            attempt=attempt,
            kind=kind,
            error_type=type(error).__name__,
            message=str(error),
            where=_error_where(error),
        )
        errors = self.stage_errors.setdefault(stage or "", [])
        if len(errors) < MAX_RECORDED_ERRORS_PER_STAGE:
            errors.append(record)
        self.fault_totals["task_errors"] += 1
        return record

    def fault_snapshot(self) -> Dict[str, int]:
        """Run-lifetime fault totals (for the manifest's ``faults`` block)."""
        return dict(self.fault_totals)

    # ------------------------------------------------------------------

    def record(
        self,
        stage: str,
        seconds: float,
        tasks: int = 0,
        task_seconds: Optional[Sequence[float]] = None,
    ) -> None:
        """Accumulate wall-clock time (and task count) under a stage name.

        ``task_seconds``, when given, folds per-task elapsed times into
        the stage's min/mean/max spread so the slowest worker is visible
        in the manifest.
        """
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
        self.stage_tasks[stage] = self.stage_tasks.get(stage, 0) + tasks
        if task_seconds:
            stats = self.stage_task_stats.setdefault(
                stage, {"min": float("inf"), "max": 0.0, "sum": 0.0, "count": 0}
            )
            stats["min"] = min(stats["min"], min(task_seconds))
            stats["max"] = max(stats["max"], max(task_seconds))
            stats["sum"] += sum(task_seconds)
            stats["count"] += len(task_seconds)

    def timings_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Copy of the accumulated stage timings (for manifests).

        Stages that saw faults additionally carry ``retries`` /
        ``timeouts`` / ``tasks_lost`` counters and the structured
        ``task_errors`` records.
        """
        snapshot = {}
        for stage in sorted(self.stage_seconds):
            entry = {
                "seconds": round(self.stage_seconds[stage], 6),
                "tasks": self.stage_tasks.get(stage, 0),
            }
            stats = self.stage_task_stats.get(stage)
            if stats and stats["count"]:
                entry["task_seconds"] = {
                    "min": round(stats["min"], 6),
                    "mean": round(stats["sum"] / stats["count"], 6),
                    "max": round(stats["max"], 6),
                }
            for label, per_stage in (
                ("retries", self.stage_retries),
                ("timeouts", self.stage_timeouts),
                ("tasks_lost", self.stage_tasks_lost),
            ):
                if per_stage.get(stage):
                    entry[label] = per_stage[stage]
            if self.stage_errors.get(stage):
                entry["task_errors"] = [
                    record.as_dict() for record in self.stage_errors[stage]
                ]
            snapshot[stage] = entry
        return snapshot

    def reset_timings(self) -> None:
        """Clear per-stage records; run-lifetime fault totals persist."""
        self.stage_seconds.clear()
        self.stage_tasks.clear()
        self.stage_task_stats.clear()
        self.stage_retries.clear()
        self.stage_timeouts.clear()
        self.stage_tasks_lost.clear()
        self.stage_errors.clear()


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
