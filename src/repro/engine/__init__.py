"""Parallel experiment engine: work scheduling, trace caching, manifests.

Every table/figure in the paper is an embarrassingly parallel sweep —
independent (site, trace-index) collections and independent CV folds —
and identical traces are re-simulated on every invocation.  This package
provides the two pieces that fix both:

* :class:`ExecutionEngine` — a ``ProcessPoolExecutor``-backed scheduler
  that fans work out at (site, trace-index) / fold granularity with
  deterministic per-task seeding, so parallel results are bit-identical
  to serial ones.  ``jobs=1`` (the default) runs everything inline.
  Dispatch is future-based and fault-tolerant: failed attempts retry
  with capped deterministic backoff, hung tasks are abandoned past a
  per-task timeout, and a broken worker pool is respawned (then falls
  back inline) — see :mod:`repro.engine.engine` and the test-only
  :mod:`repro.engine.faults` injection hook.
* :class:`TraceCache` — a content-addressed on-disk store keyed by a
  hash of everything that determines a trace (machine config, browser,
  attacker, timer, period, site signature, trace index, seed, package
  version), so warm re-runs skip simulation entirely.

:class:`RunContext` bundles scale, seed, engine and cache into the
single argument every registered experiment's ``run`` receives;
:class:`RunManifest` records per-stage timings and cache statistics as
the JSON artifact written next to rendered tables.
"""

from repro.engine.cache import (
    CacheStats,
    TraceCache,
    Uncacheable,
    cache_key,
    default_cache_dir,
    stable_token,
)
from repro.engine.context import RunContext
from repro.engine.engine import (
    ExecutionEngine,
    TaskError,
    TaskFailedError,
    resolve_jobs,
    resolve_retries,
    resolve_task_timeout,
)
from repro.engine.faults import FaultPlan, InjectedFault
from repro.engine.manifest import RunManifest

__all__ = [
    "CacheStats",
    "ExecutionEngine",
    "FaultPlan",
    "InjectedFault",
    "RunContext",
    "RunManifest",
    "TaskError",
    "TaskFailedError",
    "TraceCache",
    "Uncacheable",
    "cache_key",
    "default_cache_dir",
    "resolve_jobs",
    "resolve_retries",
    "resolve_task_timeout",
    "stable_token",
]
