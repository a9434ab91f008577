"""The single argument an experiment receives.

``RunContext`` carries the dataset scale, the base seed, the execution
engine (worker pool + stage timings) and the trace cache, so experiment
code never reaches for globals or environment variables.  Contexts are
cheap value objects — derive variants with :meth:`with_` the way
:class:`~repro.config.Scale` does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.config import DEFAULT, Scale
from repro.engine.engine import ExecutionEngine


@dataclass(frozen=True)
class RunContext:
    """Everything an experiment's ``run(ctx, **extras)`` needs."""

    scale: Scale = DEFAULT
    seed: int = 0
    engine: ExecutionEngine = None  # filled by __post_init__ / default()

    def __post_init__(self) -> None:
        if self.engine is None:
            object.__setattr__(self, "engine", ExecutionEngine())
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def cache(self):
        """The run's trace cache handle (None when caching is off)."""
        return self.engine.cache

    @classmethod
    def default(
        cls,
        scale: Scale = DEFAULT,
        seed: int = 0,
        jobs: Optional[int] = None,
        cache=None,
        retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ) -> "RunContext":
        """Context with a fresh engine (jobs from ``BIGGERFISH_JOBS``).

        The standard way for scripts and tools to build a context: the
        engine picks up the ``--jobs`` environment knob and the
        fault-tolerance knobs (``BIGGERFISH_RETRIES``,
        ``BIGGERFISH_TASK_TIMEOUT``); caching stays opt-in.
        """
        return cls(
            scale=scale,
            seed=seed,
            engine=ExecutionEngine(
                jobs, cache=cache, retries=retries, task_timeout=task_timeout
            ),
        )

    def with_(self, **changes) -> "RunContext":
        """Copy with fields replaced (``ctx.with_(scale=SMOKE)``)."""
        return replace(self, **changes)
