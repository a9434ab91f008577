"""The ``timers.jitter`` and ``sim.synthesize`` oracles catch broken fast paths.

Each pass on the real code, and each fails when the fast path it covers
is broken in one place: a flipped byte of the jittered timer's ε table, a
table read at a negative bucket, or a routed array changed after
``synthesize`` returned but before a core that shares it was drawn.
"""

import numpy as np

import repro.verify.oracles  # noqa: F401 - registers the oracles
from repro.sim import machine as sim_machine
from repro.sim.interrupts_ref import ReferenceInterruptSynthesizer
from repro.sim.machine import InterruptSynthesizer
from repro.timers import quantized
from repro.timers.quantized import JitteredTimer
from repro.verify.oracle import Case, get_oracle

SMALL = Case(seed=0, sites=1, traces=1, horizon_ms=100.0)


class TestTimersJitterOracle:
    def test_passes(self):
        for seed in (0, 1, 2):
            assert get_oracle("timers.jitter").run_case(Case(seed=seed)) is None

    def test_flipped_table_byte_fails(self, monkeypatch):
        """ε of the first bucket past the first doubling, flipped in the table."""
        jitter_bits = quantized._jitter_bits

        def flipped(start, stop, seed):
            bits = jitter_bits(start, stop, seed)
            if start == quantized._TABLE_FIRST_CHUNK:
                bits[0] ^= 1
            return bits

        monkeypatch.setattr(quantized, "_jitter_bits", flipped)
        failure = get_oracle("timers.jitter").run_case(SMALL)
        assert failure is not None
        # Only the probe 1 ns into that bucket reads it.
        assert failure.startswith("$.delta=100000 seed=0.")
        assert "(1 of 86 elements differ)" in failure

    def test_negative_bucket_table_read_fails(self, monkeypatch):
        """A table indexed at bucket -1 reads the ε of its last bucket."""
        epsilon = JitteredTimer._epsilon_ns

        def wraps_negatives(self, bucket):
            if bucket < 0 and self._table:
                return self._table[bucket] * self.delta_ns
            return epsilon(self, bucket)

        monkeypatch.setattr(JitteredTimer, "_epsilon_ns", wraps_negatives)
        assert get_oracle("timers.jitter").run_case(SMALL) is not None


class TestSynthesizeOracle:
    def test_passes(self):
        assert get_oracle("sim.synthesize").run_case(SMALL) is None

    def test_optimized_side_draws_cores_last_first(self, monkeypatch):
        drawn = []
        assemble = sim_machine._DeferredCores.assemble

        def recording(self, i):
            if self._cores[i] is None:
                drawn.append(i)
            return assemble(self, i)

        monkeypatch.setattr(sim_machine._DeferredCores, "assemble", recording)
        repro.verify.oracles._synthesize_optimized(Case(seed=0, sites=1, traces=1, horizon_ms=50.0))
        # Four 4-core machines with the attacker on core 1, and a 2-core one
        # with the attacker on core 0 (the fourth of the five).
        assert drawn == [1, 3, 2, 0] * 3 + [0, 1] + [1, 3, 2, 0]

    def test_batch_mutated_after_synthesize_fails(self, monkeypatch):
        """Core 0 is drawn after ``synthesize`` returns, from routed arrays
        it shares with the run: one changed arrival must show in that core."""
        routed_per_run = []
        route = InterruptSynthesizer._route

        def keeping_routed(self, *args):
            routed_per_run.append(route(self, *args))
            return routed_per_run[-1]

        synthesize = InterruptSynthesizer.synthesize

        def mutating(self, *args, **kwargs):
            run = synthesize(self, *args, **kwargs)
            if not isinstance(self, ReferenceInterruptSynthesizer):
                for routed in routed_per_run[-1]:
                    on_core0 = (
                        np.arange(len(routed.times))
                        if routed.targets is None
                        else np.flatnonzero(routed.targets == 0)
                    )
                    if len(on_core0):
                        routed.times[on_core0[0]] += 1.0
                        break
            return run

        monkeypatch.setattr(InterruptSynthesizer, "_route", keeping_routed)
        monkeypatch.setattr(InterruptSynthesizer, "synthesize", mutating)
        failure = get_oracle("sim.synthesize").run_case(SMALL)
        assert failure is not None
        assert failure.startswith("$[0].cores[0].arrivals")
