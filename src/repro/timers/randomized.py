"""The paper's randomized-timer defense (§6.1).

The timer increases monotonically with random increments at random
intervals.  Every Δ ms the browser draws two integers α, β uniformly
from a configured range and updates the returned value ``T_secure``:

* if ``T_real − T_secure < α·Δ`` — leave the value unchanged;
* if ``α·Δ ≤ T_real − T_secure < threshold`` — advance by ``β·Δ``;
* otherwise (lag exceeded the threshold) — snap to ``T_real + β·Δ``.

The paper reports that with its parameters (α, β ~ U[5, 25], Δ = 1 ms,
threshold = 100 ms) one nominally-5-ms attacker period spans 0 to
~100 ms of real time (Fig 8c) and closed-world accuracy falls to ~1 %
(Table 4).  With the same parameters this timer spans 1 to 31 ms per
period, median 15 ms (Fig 8, 400 periods), and leaves 12.2 % top-1 at
P = 5 ms against a 3.3 % base rate (Table 4, 30 sites); EXPERIMENTS.md
sets both beside the paper's numbers.
"""

from __future__ import annotations

import numpy as np

from repro.sim.events import MS
from repro.timers.base import BrowserTimer

#: Safety valve for first_crossing walks; generously above threshold/Δ.
_MAX_UPDATE_STEPS = 1_000_000


class RandomizedTimer(BrowserTimer):
    """Stateful randomized timer; queries must be monotone in real time."""

    def __init__(
        self,
        delta_ns: float = 1 * MS,
        alpha_range: tuple[int, int] = (5, 25),
        beta_range: tuple[int, int] = (5, 25),
        threshold_ns: float = 100 * MS,
        seed: int = 0,
    ):
        if delta_ns <= 0:
            raise ValueError(f"resolution must be positive, got {delta_ns}")
        if alpha_range[0] > alpha_range[1] or alpha_range[0] < 0:
            raise ValueError(f"invalid alpha range {alpha_range}")
        if beta_range[0] > beta_range[1] or beta_range[0] < 1:
            raise ValueError(f"invalid beta range {beta_range} (beta must advance time)")
        if threshold_ns <= 0:
            raise ValueError(f"threshold must be positive, got {threshold_ns}")
        self.delta_ns = float(delta_ns)
        self.alpha_range = (int(alpha_range[0]), int(alpha_range[1]))
        self.beta_range = (int(beta_range[0]), int(beta_range[1]))
        self.threshold_ns = float(threshold_ns)
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        """Restart the update process from time zero."""
        self._last_query_ns = float("-inf")
        self._rng = np.random.default_rng(self.seed)
        self._next_update_ns = self.delta_ns
        self._secure_ns = 0.0

    def _apply_updates_until(self, t_real_ns: float) -> None:
        while self._next_update_ns <= t_real_ns:
            self._update_at(self._next_update_ns)
            self._next_update_ns += self.delta_ns

    def _update_at(self, t_real_ns: float) -> None:
        alpha = int(self._rng.integers(self.alpha_range[0], self.alpha_range[1] + 1))
        beta = int(self._rng.integers(self.beta_range[0], self.beta_range[1] + 1))
        lag = t_real_ns - self._secure_ns
        if lag < alpha * self.delta_ns:
            return
        if lag < self.threshold_ns:
            self._secure_ns += beta * self.delta_ns
        else:
            self._secure_ns = t_real_ns + beta * self.delta_ns

    def read(self, t_real_ns: float) -> float:
        if t_real_ns < self._last_query_ns:
            raise ValueError(
                f"timer queried backwards: {t_real_ns} after {self._last_query_ns}"
            )
        self._last_query_ns = float(t_real_ns)
        self._apply_updates_until(t_real_ns)
        return self._secure_ns

    def first_crossing(self, t0_real_ns: float, elapsed_ns: float) -> float:
        if elapsed_ns < 0:
            raise ValueError(f"elapsed must be non-negative, got {elapsed_ns}")
        start_value = self.read(t0_real_ns)
        if elapsed_ns == 0:
            return float(t0_real_ns)
        # The observed value only changes on update boundaries; walk them
        # on a snapshot of the update process.  The walk is a *peek*: the
        # update stream is deterministic, so restoring the state afterwards
        # lets a later read() at any time >= t0 (which the attacker loop
        # legitimately makes between t0 and the crossing) replay the same
        # updates instead of tripping the monotonicity check.
        saved_secure = self._secure_ns
        saved_next_update = self._next_update_ns
        saved_rng_state = self._rng.bit_generator.state
        try:
            t = float(t0_real_ns)
            for _ in range(_MAX_UPDATE_STEPS):
                if self._secure_ns - start_value >= elapsed_ns:
                    return max(t, float(t0_real_ns))
                t = self._next_update_ns
                self._apply_updates_until(t)
            raise RuntimeError(
                "randomized timer failed to advance; alpha/beta/threshold "
                "parameters leave the timer stuck"
            )
        finally:
            self._secure_ns = saved_secure
            self._next_update_ns = saved_next_update
            self._rng.bit_generator.state = saved_rng_state
