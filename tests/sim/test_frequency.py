"""Tests for the DVFS/turbo model."""

import numpy as np
import pytest

from repro.sim.events import MS, SEC
from repro.sim.frequency import (
    FrequencyConfig,
    FrequencyTrace,
    IterationRateModel,
    TurboGovernor,
)


class TestFrequencyConfig:
    def test_paper_machine_span(self):
        config = FrequencyConfig()
        assert config.min_ghz == 1.6
        assert config.max_ghz == 3.0
        assert config.pinned_ghz == 2.5  # cpufreq-set value from §5.1

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyConfig(min_ghz=3.0, max_ghz=2.0)
        with pytest.raises(ValueError):
            FrequencyConfig(pinned_ghz=5.0)
        with pytest.raises(ValueError):
            FrequencyConfig(turbo_droop=1.5)


class TestFrequencyTrace:
    def test_lookup(self):
        trace = FrequencyTrace(np.array([0.0, 100.0]), np.array([3.0, 2.5]))
        assert trace.ghz_at(50.0) == 3.0
        assert trace.ghz_at(100.0) == 2.5
        assert trace.ghz_at(1e9) == 2.5

    def test_before_first_boundary_clamps(self):
        trace = FrequencyTrace(np.array([100.0]), np.array([2.0]))
        assert trace.ghz_at(0.0) == 2.0

    def test_vectorized(self):
        trace = FrequencyTrace(np.array([0.0, 100.0]), np.array([3.0, 2.5]))
        np.testing.assert_allclose(trace.ghz_at(np.array([0.0, 150.0])), [3.0, 2.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyTrace(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            FrequencyTrace(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


class TestTurboGovernor:
    def test_idle_runs_at_max_turbo(self):
        governor = TurboGovernor(FrequencyConfig(load_noise=0.0))
        assert governor.ghz_for_load(0.0) == 3.0

    def test_load_droops_frequency(self):
        governor = TurboGovernor(FrequencyConfig(load_noise=0.0))
        assert governor.ghz_for_load(1.0) < governor.ghz_for_load(0.0)

    def test_binned_to_100mhz(self):
        governor = TurboGovernor(FrequencyConfig())
        for load in np.linspace(0, 1, 21):
            ghz = governor.ghz_for_load(float(load))
            assert abs(ghz * 10 - round(ghz * 10)) < 1e-9

    def test_disabled_scaling_pins_frequency(self, rng):
        config = FrequencyConfig(scaling_enabled=False)
        trace = TurboGovernor(config).run(lambda t: 1.0, SEC, rng)
        assert trace.ghz_at(0.5 * SEC) == config.pinned_ghz

    def test_run_tracks_load_curve(self, rng):
        config = FrequencyConfig(load_noise=0.0)
        load_at = lambda t: np.where(t > 0.5 * SEC, 1.0, 0.0)
        trace = TurboGovernor(config).run(load_at, SEC, rng)
        assert trace.ghz_at(0.1 * SEC) > trace.ghz_at(0.9 * SEC)

    def test_run_rejects_scalar_load_function(self, rng):
        with pytest.raises(ValueError, match="shape"):
            TurboGovernor(FrequencyConfig()).run(lambda t: 0.5, SEC, rng)

    def test_run_rejects_bad_horizon(self, rng):
        with pytest.raises(ValueError):
            TurboGovernor(FrequencyConfig()).run(lambda t: 0.0, 0, rng)


class TestIterationRateModel:
    def test_calibration_hits_paper_counter_ceiling(self):
        """At max turbo, one 5 ms period fits ~27 000 iterations (Fig 3)."""
        model = IterationRateModel()
        counter = 5 * MS * model.iterations_per_ns(3.0)
        assert 26_000 <= counter <= 28_500

    def test_rate_scales_with_frequency(self):
        model = IterationRateModel()
        assert model.iterations_per_ns(3.0) == pytest.approx(
            1.2 * model.iterations_per_ns(2.5)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            IterationRateModel(base_iter_ns=0)
