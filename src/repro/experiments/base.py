"""Experiment infrastructure: results, formatting, registry.

Every paper table and figure has a module in this package that registers
a ``run(ctx: RunContext, **extras) -> ExperimentResult`` function under
an :class:`ExperimentSpec` (id, paper reference, description, claims),
where the context carries scale, seed, engine handle and trace cache.
Results know how to print themselves as the rows/series the paper
reports.  The registry powers the ``biggerfish`` CLI, the claims gate
and ``tools/generate_experiments.py``.

Modules register a context-style run function, with the paper's shape
claims about its result, via::

    @register("table1", paper_ref="Table 1", description="...", claims=CLAIMS)
    def run(ctx: RunContext, **extras) -> Table1Result: ...

The decorator records the spec, with the function as its ``run``, and
returns the function unchanged, so ``table1.run(ctx)`` and
``get_experiment("table1").run(ctx)`` are the same call.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from repro.config import Scale


class ExperimentResult(abc.ABC):
    """Base class for experiment outputs."""

    @abc.abstractmethod
    def format_table(self) -> str:
        """Human-readable rendition of the paper's table/figure."""

    def __str__(self) -> str:
        return self.format_table()


def format_rows(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width text table."""
    columns = [list(col) for col in zip(header, *rows)]
    widths = [max(len(cell) for cell in col) for col in columns]
    def render(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    lines = [render(header), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


def sparkline(values, width: int = 60) -> str:
    """Compact ASCII rendition of a series (for trace figures)."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return ""
    if len(values) > width:
        usable = (len(values) // width) * width
        values = values[:usable].reshape(width, -1).mean(axis=1)
    lo, hi = float(values.min()), float(values.max())
    glyphs = " .:-=+*#%@"
    if hi - lo < 1e-12:
        return glyphs[0] * len(values)
    scaled = ((values - lo) / (hi - lo) * (len(glyphs) - 1)).astype(int)
    return "".join(glyphs[i] for i in scaled)


def base_rate(scale: Scale) -> float:
    """Chance top-1 accuracy of a closed world of ``scale.n_sites`` sites."""
    return 1.0 / scale.n_sites


@dataclass(frozen=True)
class Claim:
    """One of the paper's shape claims about an experiment's result.

    ``holds(result, scale)`` returns a ``bool`` for a result produced at
    ``scale``.  Thresholds are written against the base rate
    (:func:`base_rate`) or are scale-free: orderings, ratios of drops, or
    a fraction of the undefended accuracy.  ``benchmarks/test_claims.py``
    asserts every claim at smoke scale; ``tools/generate_experiments.py``
    reports which hold at its scale.
    """

    id: str
    statement: str
    holds: Callable[[Any, Scale], bool] = field(repr=False)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: id, paper reference, one-liner, claims, run function.

    ``spec.run(ctx, **extras)`` produces the experiment's result under a
    :class:`~repro.engine.context.RunContext`.
    """

    id: str
    paper_ref: str = ""
    description: str = ""
    claims: tuple[Claim, ...] = field(default=(), compare=False, repr=False)
    run: Optional[Callable[..., ExperimentResult]] = field(
        default=None, compare=False, repr=False
    )


#: Registered experiments: id -> spec.
_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(
    experiment_id: str,
    paper_ref: str = "",
    description: str = "",
    claims: Sequence[Claim] = (),
):
    """Decorator registering a ``run(ctx, **extras)`` experiment function.

    Returns the function itself, so the module-level ``run`` name stays
    the experiment.  Claim ids are unique across the registry.
    """

    def wrap(fn: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        ids = [claim.id for claim in claims] + [claim.id for _, claim in all_claims()]
        duplicates = sorted({claim_id for claim_id in ids if ids.count(claim_id) > 1})
        if duplicates:
            raise ValueError(f"duplicate claim ids {duplicates}")
        doc = (fn.__doc__ or "").strip()
        summary = description or (doc.splitlines()[0] if doc else "")
        _REGISTRY[experiment_id] = ExperimentSpec(
            id=experiment_id, paper_ref=paper_ref, description=summary,
            claims=tuple(claims), run=fn,
        )
        return fn

    return wrap


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up a registered experiment by id (e.g. ``"table1"``).

    Run it with ``get_experiment(id).run(ctx, **extras)``.
    """
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def suggest_experiment(experiment_id: str, n: int = 3) -> list[str]:
    """Closest registered ids to a misspelled one (CLI did-you-mean)."""
    import difflib

    return difflib.get_close_matches(experiment_id, sorted(_REGISTRY), n=n, cutoff=0.4)


def list_experiments() -> list[str]:
    """All registered experiment ids."""
    return sorted(_REGISTRY)


def all_specs() -> list[ExperimentSpec]:
    """Specs of every registered experiment, sorted by id."""
    return [_REGISTRY[experiment_id] for experiment_id in sorted(_REGISTRY)]


def all_claims() -> list[tuple[str, Claim]]:
    """Every registered ``(experiment id, claim)`` pair, sorted by id."""
    return [(spec.id, claim) for spec in all_specs() for claim in spec.claims]
