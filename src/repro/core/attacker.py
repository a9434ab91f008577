"""The two attacker programs (paper Fig 2).

Both attackers run the same outer structure — count inner-loop
iterations until the browser timer says ``P`` elapsed, store the count —
and differ only in the inner loop body:

* **loop-counting** (Fig 2b, this paper's attack): increment + timer
  read.  Iteration throughput depends only on core frequency, so the
  counter measures how much execution time interrupts stole.
* **sweep-counting** (Fig 2a, Shusterman et al.): increment + a full
  sweep of an LLC-sized buffer + timer read.  Iteration time additionally
  depends on LLC occupancy, so the counter mixes the interrupt signal
  with a (coarse) cache-occupancy signal.

The collector hands each attacker the execution time available in a
period; the attacker converts it into a counter value.  ``count`` does
that for one period; ``count_many`` does it for every period of a trace
at once and must agree with ``count`` bit for bit, given the same
normal draws.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.cache.sweep import SweepTimingModel
from repro.sim.frequency import IterationRateModel
from repro.sim.machine import MachineRun


class Attacker(abc.ABC):
    """Converts per-period execution time into a counter value."""

    name: str = "attacker"

    @property
    def draw_scales(self) -> tuple[float, ...]:
        """Std-devs of the zero-mean normal draws :meth:`count` makes, in order."""
        return ()

    @abc.abstractmethod
    def count(
        self,
        exec_ns: float,
        t_begin_ns: float,
        run: MachineRun,
        rng: np.random.Generator,
    ) -> float:
        """Expected inner-loop iterations completed in ``exec_ns``."""

    @abc.abstractmethod
    def count_many(
        self,
        exec_ns: np.ndarray,
        t_begin_ns: np.ndarray,
        run: MachineRun,
        draws: np.ndarray,
    ) -> np.ndarray:
        """:meth:`count` over arrays of periods.

        ``draws[i, j]`` is the ``j``-th normal draw :meth:`count` would
        take from its generator for period ``i`` (scale
        ``draw_scales[j]``); the result equals :meth:`count` bit for bit.
        """


@dataclass
class LoopCountingAttacker(Attacker):
    """This paper's attack: no memory accesses, pure instruction throughput."""

    rate_model: IterationRateModel = field(default_factory=IterationRateModel)
    name: str = "loop-counting"

    def count(
        self,
        exec_ns: float,
        t_begin_ns: float,
        run: MachineRun,
        rng: np.random.Generator,
    ) -> float:
        ghz = run.frequency.ghz_at(t_begin_ns)
        return exec_ns * self.rate_model.iterations_per_ns(ghz)

    def count_many(
        self,
        exec_ns: np.ndarray,
        t_begin_ns: np.ndarray,
        run: MachineRun,
        draws: np.ndarray,
    ) -> np.ndarray:
        ghz = run.frequency.ghz_at(t_begin_ns)
        return exec_ns * self.rate_model.iterations_per_ns(ghz)


@dataclass
class SweepCountingAttacker(Attacker):
    """Shusterman et al.'s cache-occupancy attack.

    One iteration sweeps the whole LLC, so the iteration rate is two to
    three orders of magnitude lower (the paper observes ~32 sweeps per
    5 ms vs ~27 000 loop iterations) and varies with victim occupancy.
    Sweeps are memory-bound, so frequency scaling affects them weakly
    (``frequency_sensitivity`` < 1).
    """

    sweep_model: SweepTimingModel = field(default_factory=SweepTimingModel)
    frequency_sensitivity: float = 0.3
    base_ghz: float = 2.5
    #: Timing noise of a single sweep (DRAM contention, prefetcher state).
    sweep_jitter: float = 0.05
    #: Extra scaling on observed occupancy (the machine model already
    #: caps victim residency and adds ambient noise); 1.0 means "use the
    #: machine's observable occupancy as-is".  Setting 0 ablates the
    #: cache channel entirely (benchmarks/test_ablations.py).
    occupancy_coupling: float = 1.0
    name: str = "sweep-counting"

    @property
    def draw_scales(self) -> tuple[float, ...]:
        return (self.sweep_jitter,)

    def count(
        self,
        exec_ns: float,
        t_begin_ns: float,
        run: MachineRun,
        rng: np.random.Generator,
    ) -> float:
        victim, ambient = run.occupancy_components_at(t_begin_ns)
        occupancy = float(np.clip(self.occupancy_coupling * victim + ambient, 0.0, 1.0))
        sweep_ns = self.sweep_model.sweep_ns(occupancy)
        sweep_ns *= max(0.1, 1.0 + rng.normal(0.0, self.sweep_jitter))
        ghz = run.frequency.ghz_at(t_begin_ns)
        speedup = (ghz / self.base_ghz) ** self.frequency_sensitivity
        return exec_ns * speedup / sweep_ns

    def count_many(
        self,
        exec_ns: np.ndarray,
        t_begin_ns: np.ndarray,
        run: MachineRun,
        draws: np.ndarray,
    ) -> np.ndarray:
        victim, ambient = run.occupancy_components_at(t_begin_ns)
        occupancy = np.clip(self.occupancy_coupling * victim + ambient, 0.0, 1.0)
        jitter = 1.0 + draws[:, 0]
        sweep_ns = self.sweep_model.sweep_ns(occupancy) * np.where(jitter > 0.1, jitter, 0.1)
        # NumPy's vectorized power may differ from Python's scalar ``**``
        # in the last ulp, so raise each distinct frequency (a handful of
        # turbo bins) with the scalar operator, as count() does.
        levels, level_of = np.unique(run.frequency.ghz_at(t_begin_ns), return_inverse=True)
        powered = [(ghz / self.base_ghz) ** self.frequency_sensitivity for ghz in levels.tolist()]
        speedup = np.array(powered, dtype=np.float64)[level_of]
        return exec_ns * speedup / sweep_ns
