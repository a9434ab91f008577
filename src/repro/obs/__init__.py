"""Unified observability: tracing spans, metrics, and run profiling.

The reproduction's central claim is an observability story — the paper's
eBPF tracer attributes >99 % of attacker-visible execution gaps to
concrete kernel activity (§5.2).  This package lets the reproduction
observe *itself* with the same rigor it applies to the simulated kernel:

* :mod:`repro.obs.spans` — nested, thread-aware ``with
  span("ml.train", fold=3):`` regions recording wall time, CPU time and
  peak RSS;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms (``collect.traces``, ``sim.events_processed``,
  ``ml.epoch_seconds``);
* :mod:`repro.obs.export` — spool merging, the ``profile.jsonl`` event
  log, a self-rendered SVG timeline (via :mod:`repro.viz.svg`) and the
  summary block folded into ``run_manifest.json``;
* :mod:`repro.obs.report` — the ``biggerfish report <run-dir>`` CLI
  rendering a run's breakdown: stage timings, cache and fault counts
  from the manifest, spans and metrics from the profile.

A profile records what only profiling sees.  The engine's stage
records and the trace cache's ``CacheStats`` are counted on every run
and written once, into ``run_manifest.json``; no instrument copies
them.

Each profiled process has one :class:`Recorder` (:func:`active`) and
one spool file, ``obs-<pid>-<random>.jsonl``, for span and metric lines
alike: a span appends its line as it exits, and :func:`flush_metrics`
appends the process's running metric *totals* when they changed.

Profiling is **off by default** and costs nothing while off: each call
site does one None check and gets the shared no-op :data:`NOOP`.
:func:`enable` also exports :data:`PROFILE_DIR_ENV_VAR`, so spawned
workers join in on their first instrumented call.  Instrumentation
never touches RNG streams or results — a profiled run produces
bit-identical tables.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import tempfile
import threading
from typing import Dict, Optional, Sequence

from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, Instrument, totals
from repro.obs.spans import Span

__all__ = [
    "NOOP",
    "PROFILE_DIR_ENV_VAR",
    "Recorder",
    "active",
    "counter",
    "disable",
    "enable",
    "enabled",
    "flush_metrics",
    "gauge",
    "histogram",
    "span",
    "spool_dir",
]

#: Environment variable carrying the spool directory into workers.
PROFILE_DIR_ENV_VAR = "BIGGERFISH_PROFILE_DIR"


class _Noop:
    """The do-nothing span and instrument handed out while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_Noop":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, *value, **attrs) -> "_Noop":
        return self

    inc = observe = set


NOOP = _Noop()


class Recorder:
    """Everything profiling keeps for one process.

    One lock guards the instruments, the spool file and the totals its
    last metrics line holds, so lines never interleave and totals land
    in the order they were taken.
    """

    def __init__(self, spool_dir: pathlib.Path):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self._lock = threading.Lock()
        spool_dir.mkdir(parents=True, exist_ok=True)
        # A file of its own, so a reused pid never appends to another
        # process's totals.
        fd, _ = tempfile.mkstemp(prefix=f"obs-{self.pid}-", suffix=".jsonl", dir=spool_dir)
        self._file = open(fd, "wb", buffering=0)
        self.span_ids = itertools.count(1)
        self._local = threading.local()
        self._instruments: Dict[str, Instrument] = {}
        self._written = totals({})

    def stack(self) -> list:
        """This thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def emit(self, event: dict) -> None:
        line = json.dumps(event).encode() + b"\n"
        with self._lock:
            if not self._file.closed:  # late lines are dropped
                self._file.write(line)

    def instrument(self, name: str, kind: type, *args) -> Instrument:
        """The instrument called ``name``, created as ``kind(*args)``."""
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = kind(*args)
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, requested {kind.__name__}"
                )
            return instrument

    def snapshot(self) -> Dict[str, dict]:
        """The running totals of every instrument."""
        with self._lock:
            return totals(self._instruments)

    def flush(self) -> bool:
        """Append the running totals if they changed; True when written."""
        with self._lock:
            return self._flush_locked()

    def close(self) -> None:
        """Append the final totals and close the file."""
        with self._lock:
            self._flush_locked()
            self._file.close()

    def _flush_locked(self) -> bool:
        current = totals(self._instruments)
        if self._file.closed or current == self._written:
            return False
        self._written = current
        line = json.dumps({"type": "metrics", "pid": self.pid, **current})
        self._file.write(line.encode() + b"\n")
        return True


_RECORDER: Optional[Recorder] = None
#: Whether the environment was read since profiling was last switched off.
_ENV_CHECKED = False


def active() -> Optional[Recorder]:
    """This process's recorder, or None while profiling is off.

    While off, :data:`PROFILE_DIR_ENV_VAR` is read once, so a disabled
    call site costs one None comparison.  A recorder whose pid is not
    this process's was inherited across ``fork``: a fresh one on the
    same spool replaces it, so a worker records only its own spans and
    counts, in its own file.
    """
    global _RECORDER, _ENV_CHECKED
    recorder = _RECORDER
    if recorder is None:
        if _ENV_CHECKED:
            return None
        _ENV_CHECKED = True
        spool = os.environ.get(PROFILE_DIR_ENV_VAR, "").strip()
        if spool:
            recorder = _RECORDER = Recorder(pathlib.Path(spool))
    elif recorder.pid != os.getpid():
        recorder._file.close()  # the parent's; this process writes its own
        recorder = _RECORDER = Recorder(recorder.spool_dir)
    return recorder


def enabled() -> bool:
    """True when profiling is active in this process."""
    return active() is not None


def enable(spool_dir: os.PathLike) -> pathlib.Path:
    """Activate spans and metrics, spooling events under ``spool_dir``.

    Also exports :data:`PROFILE_DIR_ENV_VAR` so that worker processes —
    whether forked mid-run or spawned fresh — pick the same spool up
    lazily on their first instrumented call.  Returns the spool path.
    """
    global _RECORDER, _ENV_CHECKED
    spool = pathlib.Path(spool_dir)
    _RECORDER, _ENV_CHECKED = Recorder(spool), True
    os.environ[PROFILE_DIR_ENV_VAR] = str(spool)
    return spool


def disable() -> None:
    """Write this process's final totals, stop profiling, clear the env var."""
    global _RECORDER, _ENV_CHECKED
    os.environ.pop(PROFILE_DIR_ENV_VAR, None)
    recorder, _RECORDER, _ENV_CHECKED = _RECORDER, None, False
    if recorder is not None and recorder.pid == os.getpid():
        recorder.close()


def spool_dir() -> Optional[pathlib.Path]:
    """The active spool directory, or None while disabled."""
    recorder = active()
    return recorder.spool_dir if recorder is not None else None


def span(name: str, **attrs):
    """A measurement region, or the shared no-op while disabled."""
    recorder = active()
    return NOOP if recorder is None else Span(recorder, name, attrs)


def counter(name: str):
    recorder = active()
    return NOOP if recorder is None else recorder.instrument(name, Counter)


def gauge(name: str):
    recorder = active()
    return NOOP if recorder is None else recorder.instrument(name, Gauge)


def histogram(name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
    recorder = active()
    return NOOP if recorder is None else recorder.instrument(name, Histogram, buckets)


def flush_metrics() -> bool:
    """Append this process's metric totals if they changed (no-op while off)."""
    recorder = active()
    return recorder is not None and recorder.flush()
