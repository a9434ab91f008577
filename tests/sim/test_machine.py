"""Integration tests for the interrupt synthesizer."""

import pickle

import numpy as np
import pytest

from repro.sim.events import SEC
from repro.sim.interrupts import MOVABLE_TYPES, InterruptBatch, InterruptType
from repro.sim.machine import InterruptSynthesizer, MachineConfig
from repro.sim.vm import SEPARATE_VMS
from repro.workload.browser import LINUX, WINDOWS
from repro.workload.website import profile_for

HORIZON = 6 * SEC


def simulate(config=None, seed=11, site_name="nytimes.com", extra=None):
    config = config or MachineConfig(os=LINUX)
    synthesizer = InterruptSynthesizer(config)
    rng = np.random.default_rng(seed)
    site = profile_for(site_name)
    timeline = site.generate_load(rng, HORIZON)
    return synthesizer.synthesize(timeline, style=site.style, rng=rng, extra_batches=extra)


class TestMachineConfig:
    def test_needs_two_cores(self):
        with pytest.raises(ValueError):
            MachineConfig(n_cores=1)

    def test_attacker_core_in_range(self):
        with pytest.raises(ValueError):
            MachineConfig(n_cores=4, attacker_core=4)

    def test_irqbalance_routes_away_from_attacker(self):
        config = MachineConfig(irqbalance=True, attacker_core=1)
        policy = config.routing_policy()
        rng = np.random.default_rng(0)
        assert set(policy.route_source("nic", 10, rng).tolist()) == {0}

    def test_irqbalance_when_attacker_is_core0(self):
        config = MachineConfig(irqbalance=True, attacker_core=0)
        target = config.routing_policy().target_core
        assert target != 0

    def test_with_isolation(self):
        config = MachineConfig().with_isolation(pin_cores=True)
        assert config.pin_cores is True
        assert MachineConfig().pin_cores is False


class TestSynthesis:
    def test_every_core_gets_timer_ticks(self):
        run = simulate()
        tick_code = list(InterruptType).index(InterruptType.TIMER)
        for core in run.cores:
            ticks = (core.type_codes == tick_code).sum()
            expected = HORIZON / SEC * LINUX.tick_hz
            assert expected * 0.9 <= ticks <= expected * 1.1

    def test_stolen_fraction_plausible(self):
        """Attacker-core steal stays in the calibrated band (DESIGN §6)."""
        run = simulate()
        stolen = run.attacker_timeline.gaps.total_stolen_ns / HORIZON
        assert 0.005 < stolen < 0.30

    def test_irqbalance_removes_movable_from_attacker(self):
        run = simulate(MachineConfig(os=LINUX, irqbalance=True, pin_cores=True))
        movable_codes = {
            list(InterruptType).index(t) for t in MOVABLE_TYPES
        }
        attacker_types = set(run.attacker_timeline.type_codes.tolist())
        assert not (attacker_types & movable_codes)

    def test_non_movable_remain_under_irqbalance(self):
        """Takeaway 5: softirqs/resched IPIs still hit the attacker core."""
        run = simulate(MachineConfig(os=LINUX, irqbalance=True, pin_cores=True))
        types = set(run.attacker_timeline.itypes())
        assert InterruptType.TIMER in types
        assert types & {
            InterruptType.SOFTIRQ_NET_RX,
            InterruptType.SOFTIRQ_TIMER,
            InterruptType.RESCHED_IPI,
            InterruptType.TLB_SHOOTDOWN,
        }

    def test_pinning_removes_contention(self):
        pinned = simulate(MachineConfig(os=LINUX, pin_cores=True))
        causes = set(pinned.attacker_timeline.cause_names)
        assert "scheduler_contention" not in causes

    def test_default_has_contention_cause(self):
        run = simulate()
        assert "scheduler_contention" in run.attacker_timeline.cause_names

    def test_vm_amplifies_stolen_time(self):
        base = simulate(MachineConfig(os=LINUX, pin_cores=True, irqbalance=True))
        vm = simulate(
            MachineConfig(os=LINUX, pin_cores=True, irqbalance=True, vm=SEPARATE_VMS)
        )
        assert (
            vm.attacker_timeline.gaps.total_stolen_ns
            > 1.5 * base.attacker_timeline.gaps.total_stolen_ns
        )

    def test_windows_handlers_slower(self):
        linux_run = simulate(MachineConfig(os=LINUX, pin_cores=True))
        windows_run = simulate(MachineConfig(os=WINDOWS, pin_cores=True))
        linux_mean = np.mean(
            linux_run.attacker_timeline.ends - linux_run.attacker_timeline.starts
        )
        windows_mean = np.mean(
            windows_run.attacker_timeline.ends - windows_run.attacker_timeline.starts
        )
        assert windows_mean > linux_mean

    def test_extra_batches_injected(self):
        batch = InterruptBatch(
            InterruptType.SPURIOUS,
            np.array([1.0 * SEC, 2.0 * SEC]),
            np.array([5000.0, 5000.0]),
            cause="test_injection",
        )
        run = simulate(extra=[(1, batch)])
        assert "test_injection" in run.cores[1].cause_names

    def test_occupancy_bounded(self):
        run = simulate()
        observable = run.occupancy_at(run.occupancy_times)
        assert observable.min() >= 0.0
        assert observable.max() <= 1.0
        assert run.occupancy_victim.min() >= 0.0
        assert run.occupancy_ambient.min() >= 0.0

    def test_occupancy_interpolation(self):
        run = simulate()
        value = run.occupancy_at(HORIZON / 2)
        assert 0.0 <= float(value) <= 1.0

    @pytest.mark.parametrize("horizon_ms", [10, 50, 140, 150, 160])
    def test_short_run_occupancy_has_one_sample_per_time(self, horizon_ms):
        """Runs shorter than the ambient-noise kernel (15 samples of
        10 ms) used to get a kernel-length ambient curve, and every
        occupancy query on them raised."""
        site = profile_for("nytimes.com")
        rng = np.random.default_rng(3)
        timeline = site.generate_load(rng, horizon_ms * 1_000_000)
        run = InterruptSynthesizer(MachineConfig()).synthesize(
            timeline, style=site.style, rng=rng
        )
        assert len(run.occupancy_ambient) == len(run.occupancy_times)
        assert len(run.occupancy_victim) == len(run.occupancy_times)
        assert 0.0 <= float(run.occupancy_at(horizon_ms * 500_000)) <= 1.0

    def test_frequency_schedule_covers_horizon(self):
        run = simulate()
        for t in (0, HORIZON // 2, HORIZON - 1):
            assert 1.6 <= run.frequency.ghz_at(t) <= 3.0

    def test_determinism_per_seed(self):
        a = simulate(seed=42)
        b = simulate(seed=42)
        np.testing.assert_array_equal(a.attacker_timeline.arrivals, b.attacker_timeline.arrivals)

    def test_different_seeds_differ(self):
        a = simulate(seed=1)
        b = simulate(seed=2)
        assert len(a.attacker_timeline) != len(b.attacker_timeline) or not np.array_equal(
            a.attacker_timeline.arrivals, b.attacker_timeline.arrivals
        )


class _EagerSynthesizer(InterruptSynthesizer):
    """Assembles every core before ``synthesize`` returns."""

    def _assemble(self, per_core):
        return [self._build_core(batches) for batches in per_core]


def _core_bytes(core) -> tuple:
    arrays = (
        core.arrivals, core.handler_durations, core.type_codes, core.cause_codes,
        core.starts, core.ends, core.record_gap_index, core.gaps.gap_starts,
        core.gaps.gap_ends,
    )
    return (*(a.tobytes() for a in arrays), tuple(core.cause_names))


@pytest.fixture
def build_calls(monkeypatch):
    """The timeline each ``_build_core`` call returned, in call order."""
    calls = []
    build = InterruptSynthesizer._build_core

    def counting(self, batches):
        calls.append(build(self, batches))
        return calls[-1]

    monkeypatch.setattr(InterruptSynthesizer, "_build_core", counting)
    return calls


class TestDeferredCores:
    """Only the attacker's core is assembled in ``synthesize``; the rest
    on first access, each once, and the result matches eager assembly."""

    def test_synthesize_builds_only_the_attacker_core(self, build_calls):
        run = simulate()
        assert build_calls == [run.attacker_timeline]

    def test_each_core_built_at_most_once(self, build_calls):
        run = simulate()
        for _ in range(3):
            assert all(len(core) > 0 for core in run.cores)
            assert run.cores[-1] is run.cores[3]
            assert run.cores[0:2] == [run.cores[0], run.cores[1]]
        assert len(build_calls) == 4
        assert {id(core) for core in build_calls} == {id(core) for core in run.cores}

    def test_reads_like_the_list_it_replaced(self):
        run = simulate()
        cores = run.cores
        as_list = list(cores)
        assert len(cores) == 4
        assert all(a is b for a, b in zip(cores, as_list))
        assert cores[-1] is as_list[-1] and cores[-4] is as_list[0]
        assert cores[1:3] == as_list[1:3] and cores[::-2] == as_list[::-2]
        assert cores[np.int64(2)] is as_list[2]
        assert run.attacker_timeline is as_list[1]
        for index in (4, -5):
            with pytest.raises(IndexError):
                cores[index]

    @pytest.mark.parametrize("vm", [False, True])
    def test_lazy_equals_eager_bit_for_bit(self, vm):
        config = MachineConfig(os=LINUX, vm=SEPARATE_VMS) if vm else MachineConfig(os=LINUX)

        def run_with(cls):
            rng = np.random.default_rng(5)
            site = profile_for("weather.com")
            timeline = site.generate_load(rng, HORIZON)
            return cls(config).synthesize(timeline, style=site.style, rng=rng)

        lazy, eager = run_with(InterruptSynthesizer), run_with(_EagerSynthesizer)
        # Out of order: no core's assembly may depend on another's.
        for i in (3, 0, 2, 1):
            assert _core_bytes(lazy.cores[i]) == _core_bytes(eager.cores[i])
        assert lazy.frequency.ghz.tobytes() == eager.frequency.ghz.tobytes()
        assert lazy.occupancy_ambient.tobytes() == eager.occupancy_ambient.tobytes()

    def test_pickled_run_arrives_with_every_core_built(self, build_calls):
        run = simulate()
        restored = pickle.loads(pickle.dumps(run))
        assert type(restored.cores) is list and len(restored.cores) == 4
        assert len(build_calls) == 4
        for got, want in zip(restored.cores, run.cores):
            assert _core_bytes(got) == _core_bytes(want)
        assert len(build_calls) == 4


class TestSiteSignal:
    def test_resched_heavy_site_triggers_more_ipis(self):
        """weather.com's style produces more rescheduling traffic (§5.2)."""
        ipi_code = list(InterruptType).index(InterruptType.RESCHED_IPI)
        def ipi_count(site_name):
            total = 0
            for seed in range(3):
                run = simulate(
                    MachineConfig(os=LINUX, pin_cores=True), seed=seed, site_name=site_name
                )
                total += sum(
                    (core.type_codes == ipi_code).sum() for core in run.cores
                )
            return total
        assert ipi_count("weather.com") > 1.5 * ipi_count("amazon.com")

    def test_ripple_concentrates_arrivals(self):
        """Pulsed bursts produce clustered arrivals vs homogeneous ones."""
        from repro.workload.phases import ActivityBurst, BurstKind

        synthesizer = InterruptSynthesizer(MachineConfig())
        rng = np.random.default_rng(0)
        smooth = ActivityBurst(0, SEC, BurstKind.NETWORK, 1.0)
        pulsed = ActivityBurst(0, SEC, BurstKind.NETWORK, 1.0, ripple_hz=20.0, duty=0.4)
        t_smooth = synthesizer._poisson_times(smooth, 5000, rng)
        t_pulsed = synthesizer._poisson_times(pulsed, 5000, rng)
        # Coefficient of variation of inter-arrival times is higher for
        # the pulsed burst (long off-phase silences).
        cv = lambda t: np.std(np.diff(t)) / np.mean(np.diff(t))
        assert cv(t_pulsed) > 1.3 * cv(t_smooth)


class TestTurboBoostArtifacts:
    """Footnote 4: Turbo Boost produces gaps with no OS explanation."""

    def test_disabled_by_default(self):
        run = simulate()
        assert InterruptType.UNKNOWN not in set(run.attacker_timeline.itypes())

    def test_enabled_generates_unknown_gaps(self):
        run = simulate(MachineConfig(os=LINUX, turbo_boost_artifacts=True))
        assert InterruptType.UNKNOWN in set(run.attacker_timeline.itypes())

    def test_artifacts_break_full_attribution(self):
        """With Turbo Boost on, the tracer can no longer explain >99 %
        of gaps — which is why the paper disables it for §5.2."""
        from repro.tracing.attribution import attribute_gaps
        from repro.tracing.ebpf import KprobeTracer

        clean = simulate(MachineConfig(os=LINUX, pin_cores=True))
        boosted = simulate(
            MachineConfig(os=LINUX, pin_cores=True, turbo_boost_artifacts=True)
        )
        clean_fraction = attribute_gaps(KprobeTracer(clean)).attributed_fraction
        boosted_fraction = attribute_gaps(KprobeTracer(boosted)).attributed_fraction
        assert clean_fraction > 0.99
        assert boosted_fraction < 0.97
