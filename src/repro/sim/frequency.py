"""CPU frequency scaling (DVFS / turbo) model.

The loop-counting attack measures instruction throughput, so processor
frequency directly scales its counter values.  Table 3 shows that fixing
the frequency (``cpufreq-set``) costs the attack only ~1 % accuracy:
frequency contributes a small, load-correlated component plus noise, but
is not the primary channel.

The attacker's own core is always 100 % busy (it spins), so an
ondemand-style governor keeps it at its highest available frequency.
What varies is the *turbo budget*: as other cores become active while
the victim loads a page, the package drops to lower multi-core turbo
bins.  We model the attacker core's frequency as maximum turbo minus a
load-proportional droop, quantized to 100 MHz bins, re-evaluated on a
fixed governor interval with estimation noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.events import MS


@dataclass(frozen=True)
class FrequencyConfig:
    """Turbo/DVFS parameters for one machine.

    The default span (1.6–3.0 GHz) matches the paper's test machine; the
    pinned frequency (2.5 GHz) matches its ``cpufreq-set`` experiment.
    """

    min_ghz: float = 1.6
    max_ghz: float = 3.0
    pinned_ghz: float = 2.5
    scaling_enabled: bool = True
    governor_interval_ns: int = 50 * MS
    #: Fraction of the frequency span lost at full system load (turbo
    #: bins shrinking as sibling cores wake up).
    turbo_droop: float = 0.12
    #: Turbo bin granularity (Intel: 100 MHz).
    bin_ghz: float = 0.1
    #: Std-dev of the governor's load-estimation noise.
    load_noise: float = 0.06

    def __post_init__(self) -> None:
        if self.min_ghz <= 0 or self.max_ghz < self.min_ghz:
            raise ValueError(
                f"invalid frequency span [{self.min_ghz}, {self.max_ghz}] GHz"
            )
        if not self.min_ghz <= self.pinned_ghz <= self.max_ghz:
            raise ValueError(f"pinned frequency {self.pinned_ghz} outside span")
        if not 0.0 <= self.turbo_droop <= 1.0:
            raise ValueError(f"turbo_droop must be in [0, 1], got {self.turbo_droop}")
        if self.bin_ghz <= 0:
            raise ValueError("turbo bin size must be positive")


class FrequencyTrace:
    """Piecewise-constant core frequency over a simulation run."""

    def __init__(self, boundaries_ns: np.ndarray, ghz: np.ndarray):
        self.boundaries_ns = np.asarray(boundaries_ns, dtype=np.float64)
        self.ghz = np.asarray(ghz, dtype=np.float64)
        if len(self.ghz) != len(self.boundaries_ns):
            raise ValueError("need one frequency per interval start")
        if len(self.boundaries_ns) == 0:
            raise ValueError("frequency trace cannot be empty")
        if np.any(np.diff(self.boundaries_ns) <= 0):
            raise ValueError("interval starts must be strictly increasing")

    def ghz_at(self, t_ns: np.ndarray | float) -> np.ndarray | float:
        """Frequency in GHz at time(s) ``t_ns``."""
        t_arr = np.asarray(t_ns, dtype=np.float64)
        idx = np.clip(
            np.searchsorted(self.boundaries_ns, t_arr, side="right") - 1,
            0,
            len(self.ghz) - 1,
        )
        result = self.ghz[idx]
        return float(result) if np.isscalar(t_ns) else result


class TurboGovernor:
    """Produces the attacker core's frequency schedule under system load.

    ``load_at(t_ns) -> [0, 1]`` supplies instantaneous system load over
    an array of times (``ActivityTimeline.load_at_array``); the governor
    samples it every interval, adds estimation noise, and maps load to a
    turbo bin: ``f = max − droop · span · load``, rounded to the bin
    grid.
    """

    def __init__(self, config: FrequencyConfig):
        self.config = config

    def ghz_for_load(self, load: float) -> float:
        """Turbo frequency for a given (noise-free) system load."""
        return float(self.ghz_for_loads(np.asarray(load, dtype=np.float64)))

    def ghz_for_loads(self, loads: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`ghz_for_load` over an array of loads."""
        cfg = self.config
        span = cfg.max_ghz - cfg.min_ghz
        raw = cfg.max_ghz - cfg.turbo_droop * span * np.clip(loads, 0.0, 1.0)
        binned = np.round(raw / cfg.bin_ghz) * cfg.bin_ghz
        return np.clip(binned, cfg.min_ghz, cfg.max_ghz)

    def run(self, load_at, horizon_ns: int, rng: np.random.Generator) -> FrequencyTrace:
        """Produce the frequency schedule for ``[0, horizon_ns)``."""
        if horizon_ns <= 0:
            raise ValueError(f"horizon must be positive, got {horizon_ns}")
        if not self.config.scaling_enabled:
            return FrequencyTrace(np.array([0.0]), np.array([self.config.pinned_ghz]))
        starts = np.arange(0, horizon_ns, self.config.governor_interval_ns, dtype=np.float64)
        loads = np.asarray(load_at(starts), dtype=np.float64)
        if loads.shape != starts.shape:
            raise ValueError(
                f"load_at returned shape {loads.shape} for {len(starts)} sample times"
            )
        loads = np.clip(loads + rng.normal(0.0, self.config.load_noise, len(starts)), 0.0, 1.0)
        return FrequencyTrace(starts, self.ghz_for_loads(loads))


@dataclass
class IterationRateModel:
    """Converts core frequency into attacker loop-iteration rate.

    Calibrated so a loop iteration (increment + ``performance.now()``
    call) costs ~185 ns at max turbo (3.0 GHz), putting 5 ms-period
    counters at the paper's ~27 000 ceiling with dips toward ~21 000
    under combined interrupt pressure and turbo droop (Fig 3).
    """

    base_iter_ns: float = 222.0
    base_ghz: float = 2.5

    def __post_init__(self) -> None:
        if self.base_iter_ns <= 0 or self.base_ghz <= 0:
            raise ValueError("iteration cost and base frequency must be positive")

    def iterations_per_ns(self, ghz: np.ndarray | float) -> np.ndarray | float:
        """Loop iterations completed per executed nanosecond at ``ghz``."""
        return (np.asarray(ghz) / self.base_ghz) / self.base_iter_ns
