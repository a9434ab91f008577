"""Retained reference implementation of the attacker period walk.

:meth:`TraceCollector._walk_periods <repro.core.collector.TraceCollector._walk_periods>`
replays Fig 2's loop in two phases: a serial pass that finds every
period boundary, then bulk arithmetic that counts all periods at once
and takes every normal draw of the trace in one call.  This module keeps
the one-period-at-a-time loop the two-phase walk replaced alive as an
executable specification: :class:`ReferenceTraceCollector` reads the
timer, finds the boundary, measures executed time, asks the attacker
for one counter and draws its noise, period by period, exactly as the
loop always did.

The two walks must agree **bit-for-bit** — observed starts, counters
and the RNG state left behind — for every timer kind and both
attackers: that is the ``collect.walk`` differential oracle in
:mod:`repro.verify`.  Simulation, seeding and caching are shared with
the base class; only the walk differs.

Nothing here is exported through ``repro.core``'s public surface; the
verify harness and its tests are the only intended consumers.
"""

from __future__ import annotations

import numpy as np

from repro.core.collector import _MAX_PERIODS, TraceCollector
from repro.core.trace import Trace
from repro.sim.machine import MachineRun


class ReferenceTraceCollector(TraceCollector):
    """A collector whose period walk is the per-period scalar loop."""

    def _walk_periods(
        self,
        run: MachineRun,
        timer,
        rng: np.random.Generator,
        label: str,
    ) -> Trace:
        """Replay the attacker loop (Fig 2) over one simulated run."""
        gaps = run.attacker_timeline.gaps
        horizon = float(self.spec.horizon_ns)
        period = float(self.period_ns)
        noise_sigma = self.browser.measurement_noise
        observed_starts: list[float] = []
        counters: list[float] = []
        timer.reset()
        t = gaps.next_execution_time(0.0)
        for _ in range(_MAX_PERIODS):
            if t >= horizon:
                break
            obs_begin = timer.read(t)
            t_cross = timer.first_crossing(t, period)
            # The attacker only notices the crossing once it is executing
            # again: a gap spanning the boundary stretches the period.
            t_end = gaps.next_execution_time(t_cross)
            if t_end <= t:  # degenerate timer (e.g. randomized, lagging)
                t_end = gaps.next_execution_time(t + period)
            exec_ns = gaps.executed_between(t, min(t_end, horizon))
            counter = self.attacker.count(exec_ns, t, run, rng)
            if noise_sigma > 0:
                counter *= max(0.0, 1.0 + rng.normal(0.0, noise_sigma))
            observed_starts.append(obs_begin)
            counters.append(np.floor(max(counter, 0.0)))
            t = t_end
        else:
            raise RuntimeError(
                f"trace exceeded {_MAX_PERIODS} periods; timer never advances"
            )
        return Trace(
            spec=self.spec,
            observed_starts=np.array(observed_starts),
            counters=np.array(counters),
            label=label,
            attacker=self.attacker.name,
        )
