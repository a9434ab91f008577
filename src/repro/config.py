"""Experiment scaling knobs, and the reader for numeric settings.

Every experiment accepts a :class:`Scale` controlling dataset size,
trace length and classifier backend, so the whole suite runs on a
laptop in minutes at ``SMOKE``/``DEFAULT`` scale while ``PAPER`` scale
mirrors the publication's dataset sizes (100 sites x 100 traces, 15 s
traces at P = 5 ms, 10-fold CV, full-width LSTM).  EXPERIMENTS.md
records the scale used for every reported number.

Every numeric ``BIGGERFISH_*`` environment variable is read through
:func:`read_setting`, so each one is parsed, range-checked and reported
the same way.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace


@dataclass(frozen=True)
class Scale:
    """Dataset and evaluation sizing for one experiment run."""

    name: str
    n_sites: int
    traces_per_site: int
    trace_seconds: float
    period_ms: float
    n_folds: int
    backend: str
    open_world_sites: int

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError("need at least two sites to classify")
        if self.traces_per_site < 1 or self.open_world_sites < 0:
            raise ValueError("invalid trace counts")
        if self.trace_seconds <= 0 or self.period_ms <= 0:
            raise ValueError("invalid trace timing")
        if self.n_folds < 2:
            raise ValueError("cross-validation needs at least two folds")

    def scaled_trace_seconds(self, browser_trace_seconds: float) -> float:
        """Trace length for a browser, preserving the paper's Tor ratio.

        The paper uses 15 s traces except on Tor Browser (50 s); scales
        shrink both proportionally.
        """
        return self.trace_seconds * (browser_trace_seconds / 15.0)

    def with_(self, **changes) -> "Scale":
        """Copy with fields replaced."""
        return replace(self, **changes)

    def as_dict(self) -> dict:
        """Plain-dict rendition (recorded in run manifests)."""
        return asdict(self)


SMOKE = Scale(
    name="smoke", n_sites=8, traces_per_site=6, trace_seconds=4.0,
    period_ms=10.0, n_folds=2, backend="feature", open_world_sites=40,
)
DEFAULT = Scale(
    name="default", n_sites=30, traces_per_site=15, trace_seconds=8.0,
    period_ms=5.0, n_folds=3, backend="feature", open_world_sites=150,
)
PAPER = Scale(
    name="paper", n_sites=100, traces_per_site=100, trace_seconds=15.0,
    period_ms=5.0, n_folds=10, backend="lstm-paper", open_world_sites=5000,
)

SCALES = {s.name: s for s in (SMOKE, DEFAULT, PAPER)}


def read_setting(
    value, env_var: str, default, *, name: str, convert=int, minimum=0, exclusive=False
):
    """An explicit ``value``, else ``$env_var``, else ``default``.

    The value is converted with ``convert`` (``int`` or ``float``) and
    must be at least ``minimum`` (greater than it with ``exclusive``).
    An unset or blank variable means the default, which is returned
    as is.  A bad value raises :class:`ValueError` naming where it came
    from: ``name`` for an explicit value, ``env_var`` for the
    environment.
    """
    source = name
    if value is None:
        value = os.environ.get(env_var, "").strip()
        if not value:
            return default
        source = env_var
    try:
        value = convert(value)
    except (TypeError, ValueError):
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{source} must be {kind}, got {value!r}") from None
    if value < minimum or (exclusive and value == minimum):
        raise ValueError(
            f"{source} must be {'>' if exclusive else '>='} {minimum}, got {value}"
        )
    return value
