"""Browser timer interface.

In-browser attackers are restricted to ``performance.now()``, whose
output is deliberately degraded (paper §6.1): quantized to a resolution
Δ, optionally jittered (Chrome), or — with the paper's proposed defense —
randomized.  The attacker interacts with a timer in two ways:

* ``read(t_real)``: the value returned at real time ``t_real``; and
* ``first_crossing(t0, elapsed)``: the earliest real time at which the
  observed time has advanced by at least ``elapsed`` since ``t0``, which
  is the loop-period boundary in Fig 2's pseudo-code
  (``while (time() - t_begin < P)``).

Stateful timers (randomized) require time to be queried monotonically,
matching a real program's access pattern.

The attacker loop's serial phase, stepping from one period boundary to
the next, belongs to the timer too: :meth:`BrowserTimer.period_boundaries`
walks it through ``read`` and ``first_crossing``, and a timer whose
values follow from a table may walk it in one fused loop instead.
"""

from __future__ import annotations

import abc
from bisect import bisect_right

import numpy as np

#: Hard cap on periods per trace, protecting against degenerate timers.
_MAX_PERIODS = 2_000_000


class BrowserTimer(abc.ABC):
    """A (possibly degraded) monotonic timer exposed to the attacker."""

    @abc.abstractmethod
    def read(self, t_real_ns: float) -> float:
        """Observed timer value at real time ``t_real_ns``."""

    @abc.abstractmethod
    def first_crossing(self, t0_real_ns: float, elapsed_ns: float) -> float:
        """Earliest real time ``t >= t0`` with ``read(t) - read(t0) >= elapsed``."""

    def reset(self) -> None:
        """Forget internal state (called between traces); default no-op."""

    def period_boundaries(
        self, gap_starts, gap_ends, horizon_ns: float, period_ns: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The serial phase of the attacker walk: ``(begins, ends, observed)``.

        ``gap_starts``/``gap_ends`` are the attacker core's execution gaps
        (sorted, disjoint float64 arrays).  Per period, in the loop's
        order: read the timer, ask it when ``period_ns`` has elapsed, and
        resume at the next instant the attacker executes (a gap spanning
        the boundary stretches the period).  Gap lookups bisect
        memoryviews of the gap arrays: no copy, and each probe yields a
        plain float, far cheaper per call than a scalar ``searchsorted``.
        Ends are not clipped to the horizon.  The timer is reset first.
        """
        gap_starts = memoryview(gap_starts)
        gap_ends = memoryview(gap_ends)
        n_gaps = len(gap_ends)

        def resume(t) -> float:
            # GapTimeline.next_execution_time, on the memoryviews.
            i = bisect_right(gap_ends, t)
            return gap_ends[i] if i < n_gaps and gap_starts[i] <= t else float(t)

        begins: list[float] = []
        ends: list[float] = []
        observed: list[float] = []
        self.reset()
        t = resume(0.0)
        for _ in range(_MAX_PERIODS):
            if t >= horizon_ns:
                break
            observed.append(self.read(t))
            t_end = resume(self.first_crossing(t, period_ns))
            if t_end <= t:  # degenerate timer (e.g. randomized, lagging)
                t_end = resume(t + period_ns)
            begins.append(t)
            ends.append(t_end)
            t = t_end
        else:
            raise RuntimeError(
                f"trace exceeded {_MAX_PERIODS} periods; timer never advances"
            )
        return np.array(begins), np.array(ends), np.array(observed)


class PreciseTimer(BrowserTimer):
    """A perfect timer: observed time equals real time.

    Used by native attackers (the Rust ``CLOCK_MONOTONIC`` poller of
    §5.2) and as the identity baseline in timer tests.

    >>> timer = PreciseTimer()
    >>> timer.read(1234.5)
    1234.5
    >>> timer.first_crossing(1000.0, 250.0)
    1250.0
    >>> timer.first_crossing(0.0, -1.0)
    Traceback (most recent call last):
        ...
    ValueError: elapsed must be non-negative, got -1.0
    """

    def read(self, t_real_ns: float) -> float:
        return float(t_real_ns)

    def first_crossing(self, t0_real_ns: float, elapsed_ns: float) -> float:
        if elapsed_ns < 0:
            raise ValueError(f"elapsed must be non-negative, got {elapsed_ns}")
        return float(t0_real_ns + elapsed_ns)

