"""Deterministic, test-only fault injection for the execution engine.

The engine's recovery paths — retry-on-exception, per-task timeouts,
``BrokenProcessPool`` respawning — are worthless if they only run when
production actually breaks.  This module makes a configurable fraction
of engine tasks fail *deterministically* so those paths are exercised in
tests and CI on every run.

A :class:`FaultPlan` decides, from a seeded hash of ``(stage, task
index)`` alone, whether an attempt at a task is sabotaged and how:

* ``raise`` — the task raises :class:`InjectedFault` before doing any
  work (a transient error: the retry succeeds);
* ``hang``  — the task sleeps ``hang_s`` seconds, then raises (with a
  per-task timeout configured the scheduler abandons it sooner);
* ``kill``  — the worker process exits hard via ``os._exit``, breaking
  the whole pool (the ``BrokenProcessPool`` recovery path).

Faults fire only while ``attempt < max_attempt`` (default: first attempt
only), so every sabotaged task eventually succeeds and the engine's
bit-identical parallel==serial guarantee can be asserted *through* the
faults.  Injection happens before the task function runs, so a sabotaged
attempt has no side effects to double on retry.

Activation travels through the :data:`FAULTS_ENV_VAR` environment
variable (a ``key=value`` spec, e.g. ``rate=0.2,modes=raise+kill,seed=3``)
so forked and spawned workers alike pick the plan up; the engine calls
:func:`maybe_inject` at the top of every task and says whether its pool
runs the task.  ``kill`` and ``hang`` fire only in a pool task; a task
run inline (serial, or the fallback after a broken pool) raises
instead, so the interpreter running the engine, or any child
interpreter it starts, is never killed or stalled.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

#: Environment variable carrying the active fault plan spec.
FAULTS_ENV_VAR = "BIGGERFISH_FAULTS"
#: Every fault mode a plan may select from.
MODES = ("raise", "hang", "kill")
#: Exit status used by ``kill`` faults (distinctive in worker post-mortems).
KILL_EXIT_CODE = 77


class InjectedFault(RuntimeError):
    """The transient error raised by injected ``raise``/``hang`` faults."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded description of which engine tasks fail, and how.

    ``rate`` is the fraction of tasks sabotaged; ``modes`` the fault
    kinds drawn from (uniformly, by hash); ``seed`` makes two plans
    disagree about *which* tasks are hit; ``max_attempt`` bounds how many
    attempts at one task are sabotaged (1 = first attempt only);
    ``hang_s`` is the sleep for ``hang`` faults.
    """

    rate: float = 0.0
    modes: Tuple[str, ...] = ("raise",)
    seed: int = 0
    max_attempt: int = 1
    hang_s: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if not self.modes or any(m not in MODES for m in self.modes):
            raise ValueError(f"fault modes must be drawn from {MODES}, got {self.modes}")
        if self.max_attempt < 1:
            raise ValueError(f"max_attempt must be >= 1, got {self.max_attempt}")
        if self.hang_s <= 0:
            raise ValueError(f"hang_s must be positive, got {self.hang_s}")

    # -- deterministic decisions ---------------------------------------

    def decision(self, stage: str, index: int, attempt: int) -> Optional[str]:
        """The fault mode injected for this attempt, or None.

        Pure function of the plan and ``(stage, index)`` — every process
        holding the same plan agrees, which is what makes injected runs
        reproducible and lets tests predict exactly which tasks are hit.
        """
        if self.rate <= 0.0 or attempt >= self.max_attempt:
            return None
        digest = hashlib.sha256(f"{self.seed}:{stage}:{index}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        if draw >= self.rate:
            return None
        return self.modes[digest[8] % len(self.modes)]

    # -- env-spec round trip -------------------------------------------

    def spec(self) -> str:
        """Serialize to the ``key=value,...`` form carried in the env."""
        return (
            f"rate={self.rate!r},modes={'+'.join(self.modes)},seed={self.seed},"
            f"max_attempt={self.max_attempt},hang_s={self.hang_s!r}"
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string; unknown keys and bad values raise."""
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"malformed fault spec component {part!r} in {spec!r}")
            key = key.strip()
            value = value.strip()
            try:
                if key == "rate":
                    kwargs["rate"] = float(value)
                elif key == "modes":
                    kwargs["modes"] = tuple(value.split("+"))
                elif key in ("seed", "max_attempt"):
                    kwargs[key] = int(value)
                elif key == "hang_s":
                    kwargs["hang_s"] = float(value)
                else:
                    raise ValueError(f"unknown fault spec key {key!r} in {spec!r}")
            except ValueError as error:
                raise ValueError(f"bad fault spec value {part!r}: {error}") from None
        return cls(**kwargs)


# ----------------------------------------------------------------------
# module-level state

#: Cache of the last parsed env spec, keyed by the raw string.
_CACHED: Optional[Tuple[str, FaultPlan]] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan carried by :data:`FAULTS_ENV_VAR`, or None when unset."""
    global _CACHED
    spec = os.environ.get(FAULTS_ENV_VAR, "").strip()
    if not spec:
        return None
    if _CACHED is None or _CACHED[0] != spec:
        _CACHED = (spec, FaultPlan.parse(spec))
    return _CACHED[1]


def activate(plan: FaultPlan) -> FaultPlan:
    """Export ``plan`` through the environment so workers inherit it.

    Returns the exported plan.
    """
    os.environ[FAULTS_ENV_VAR] = plan.spec()
    return plan


def deactivate() -> None:
    """Stop injecting faults in this process and future workers."""
    os.environ.pop(FAULTS_ENV_VAR, None)


@contextlib.contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with injected(FaultPlan(rate=0.3)):`` — scoped activation."""
    exported = activate(plan)
    try:
        yield exported
    finally:
        deactivate()


def maybe_inject(stage: str, index: int, attempt: int, in_pool: bool = False) -> None:
    """Sabotage this task attempt if the active plan says so.

    Called by the engine at the top of every task, before the task
    function runs; ``in_pool`` says whether a pool worker runs it.
    ``kill`` and ``hang`` fire only there, and raise anywhere else.
    No-op (one env lookup) when no plan is active.
    """
    plan = active_plan()
    if plan is None:
        return
    mode = plan.decision(stage, index, attempt)
    if mode is None:
        return
    if mode == "kill" and in_pool:
        os._exit(KILL_EXIT_CODE)
    if mode == "hang" and in_pool:
        time.sleep(plan.hang_s)
    raise InjectedFault(
        f"injected {mode} fault (stage={stage!r}, task={index}, attempt={attempt})"
    )
