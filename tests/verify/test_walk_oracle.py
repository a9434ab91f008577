"""The ``collect.walk`` oracle passes on the real walk and catches a one-ulp nudge."""

import numpy as np

from repro.core import collector as collector_module
from repro.core.attacker import SweepCountingAttacker
from repro.core.collector import TraceCollector
from repro.core.walk_ref import ReferenceTraceCollector
from repro.verify import oracles
from repro.verify.compare import diff_structures
from repro.verify.driver import sweep
from repro.verify.oracle import Case, get_oracle

SMALL = Case(seed=0, sites=1, traces=1, horizon_ms=100.0)


def _one_ulp_up(values: np.ndarray) -> np.ndarray:
    nudged = values.copy()
    nudged[len(nudged) // 2] = np.nextafter(nudged[len(nudged) // 2], np.inf)
    return nudged


class TestCollectWalkOracle:
    def test_passes(self):
        assert get_oracle("collect.walk").run_case(SMALL) is None

    def test_passes_across_seeds(self):
        report = sweep(
            [Case(seed=seed, sites=2, traces=1, horizon_ms=200.0) for seed in (1, 2)],
            oracles=["collect.walk"],
        )
        assert report.ok

    def test_nudged_boundary_pass_fails(self, monkeypatch):
        """One observed start moved by one ulp in the new walk only."""
        boundaries = collector_module._period_boundaries

        def nudged(*args):
            begins, ends, observed = boundaries(*args)
            return begins, ends, _one_ulp_up(observed)

        monkeypatch.setattr(collector_module, "_period_boundaries", nudged)
        failure = get_oracle("collect.walk").run_case(SMALL)
        assert failure is not None
        assert "observed_starts" in failure
        assert "1 of" in failure

    def test_low_bit_rng_state_difference_fails(self, monkeypatch):
        """An RNG state one low bit apart fails, though equal as floats."""
        walk = TraceCollector._walk_periods

        def flipped(self, run, timer, rng, *args):
            trace = walk(self, run, timer, rng, *args)
            state = rng.bit_generator.state
            state["state"]["state"] ^= 1
            rng.bit_generator.state = state
            return trace

        monkeypatch.setattr(TraceCollector, "_walk_periods", flipped)
        failure = get_oracle("collect.walk").run_case(SMALL)
        assert failure is not None
        assert failure.startswith("$.walks[0].rng_state.state.state")

    def test_nudged_count_many_fails_only_unfloored(self, monkeypatch):
        """A one-ulp error in count_many survives only in unfloored counts.

        The walked counters are floored, so they agree; the unfloored
        ``count_many`` vs ``count`` comparison is what fails.
        """
        count_many = SweepCountingAttacker.count_many

        def nudged(self, *args):
            return _one_ulp_up(count_many(self, *args))

        monkeypatch.setattr(SweepCountingAttacker, "count_many", nudged)
        failure = get_oracle("collect.walk").run_case(SMALL)
        assert failure is not None
        assert failure.startswith("$.counts[1]")
        walks = [oracles._walks(SMALL, cls) for cls in (ReferenceTraceCollector, TraceCollector)]
        assert diff_structures(*walks) is None
