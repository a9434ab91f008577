"""The ``timers.jitter`` and ``sim.synthesize`` oracles catch broken fast paths.

Each pass on the real code, and each fails when the fast path it covers
is broken in one place: a flipped byte of the jittered timer's ε table, a
table read at a negative bucket, or a batch array changed after
``synthesize`` returned but before its core was assembled.
"""

import repro.verify.oracles  # noqa: F401 - registers the oracles
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

    def test_batch_mutated_after_synthesize_fails(self, monkeypatch):
        """Core 0 is assembled after ``synthesize`` returns, from batches
        it still holds: one changed arrival must show in that core."""
        tick_times = []
        add_ticks = InterruptSynthesizer._add_timer_ticks

        def keeping_core0_ticks(self, per_core, *args):
            add_ticks(self, per_core, *args)
            tick_times.append(per_core[0][-1].times)

        synthesize = InterruptSynthesizer.synthesize

        def mutating(self, *args, **kwargs):
            run = synthesize(self, *args, **kwargs)
            if not isinstance(self, ReferenceInterruptSynthesizer):
                tick_times[-1][0] += 1.0
            return run

        monkeypatch.setattr(InterruptSynthesizer, "_add_timer_ticks", keeping_core0_ticks)
        monkeypatch.setattr(InterruptSynthesizer, "synthesize", mutating)
        failure = get_oracle("sim.synthesize").run_case(SMALL)
        assert failure is not None
        assert failure.startswith("$[0].cores[0].arrivals")
