"""The retained reference synthesizer must match the vectorized one bit-for-bit."""

import numpy as np
import pytest

from repro.sim.interrupts import InterruptBatch, InterruptType, merge_batches
from repro.sim.interrupts_ref import (
    ReferenceHandlerLatencyModel,
    ReferenceInterruptSynthesizer,
    merge_batches_ref,
)
from repro.sim.machine import InterruptSynthesizer, MachineConfig
from repro.sim.vm import SEPARATE_VMS
from repro.workload.catalog import closed_world

HORIZON_NS = int(1.0e9)

CORE_ARRAYS = (
    "arrivals",
    "handler_durations",
    "type_codes",
    "cause_codes",
    "starts",
    "ends",
    "record_gap_index",
)


def synth_pair(seed: int, **config_kwargs):
    config = MachineConfig(**config_kwargs)
    site = closed_world(4)[seed % 4]
    timeline = site.generate_load(np.random.default_rng(seed + 1), HORIZON_NS)
    optimized = InterruptSynthesizer(config).synthesize(
        timeline, style=site.style, rng=np.random.default_rng(seed)
    )
    reference = ReferenceInterruptSynthesizer(config).synthesize(
        timeline, style=site.style, rng=np.random.default_rng(seed)
    )
    return optimized, reference


def assert_runs_identical(optimized, reference):
    for core, (a, b) in enumerate(zip(optimized.cores, reference.cores)):
        for name in CORE_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), (core, name)
        assert a.cause_names == b.cause_names
        assert np.array_equal(a.gaps.gap_starts, b.gaps.gap_starts)
        assert np.array_equal(a.gaps.gap_ends, b.gaps.gap_ends)
    assert np.array_equal(optimized.frequency.boundaries_ns, reference.frequency.boundaries_ns)
    assert np.array_equal(optimized.frequency.ghz, reference.frequency.ghz)
    assert np.array_equal(optimized.occupancy_victim, reference.occupancy_victim)
    assert np.array_equal(optimized.occupancy_ambient, reference.occupancy_ambient)


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_default_config(self, seed):
        assert_runs_identical(*synth_pair(seed))

    def test_irqbalance(self):
        assert_runs_identical(*synth_pair(3, irqbalance=True))

    def test_pinned_cores(self):
        assert_runs_identical(*synth_pair(4, pin_cores=True))

    def test_turbo_artifacts(self):
        assert_runs_identical(*synth_pair(5, turbo_boost_artifacts=True))

    def test_vm(self):
        assert_runs_identical(*synth_pair(6, vm=SEPARATE_VMS))

    def test_many_cores(self):
        assert_runs_identical(*synth_pair(7, n_cores=8, attacker_core=5))


class TestPerturbHook:
    def test_flag_moves_only_the_optimized_path(self, perturbed_synthesizer):
        optimized, reference = synth_pair(0)
        with pytest.raises(AssertionError, match=r"\(0, 'arrivals'\)"):
            assert_runs_identical(optimized, reference)

    def test_flag_absent_is_identical(self):
        assert_runs_identical(*synth_pair(0))


class TestMergeBatchesRef:
    def test_matches_optimized_merge(self):
        rng = np.random.default_rng(2)
        batches = []
        for i in range(6):
            # Quantized times force cross-batch ties.
            times = np.sort(rng.integers(0, 50, size=rng.integers(1, 30)))
            batches.append(
                InterruptBatch(
                    list(InterruptType)[i % 4],
                    times.astype(np.float64),
                    rng.uniform(1.0, 5.0, size=len(times)),
                    cause=f"b{i % 3}",
                )
            )
        ref = merge_batches_ref(batches)
        opt = merge_batches(batches)
        for r, o in zip(ref[:4], opt[:4]):
            assert np.array_equal(r, o)
        assert ref[4] == opt[4]

    def test_empty(self):
        times, durations, type_codes, cause_codes, causes = merge_batches_ref([])
        assert len(times) == 0 and causes == []


class TestReferenceLatencyModel:
    def test_unit_factor_is_bit_identical(self):
        from repro.sim.interrupts import HandlerLatencyModel

        opt = HandlerLatencyModel(platform_factor=1.0)
        ref = ReferenceHandlerLatencyModel(platform_factor=1.0)
        a = opt.sample(InterruptType.TIMER, np.random.default_rng(0), 500)
        b = ref.sample(InterruptType.TIMER, np.random.default_rng(0), 500)
        assert np.array_equal(a, b)
