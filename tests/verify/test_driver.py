"""Seed-sweep driver: aggregation, parallel fan-out, fault surfacing."""

import pytest

import repro.verify.oracles  # noqa: F401 - populate the registry
from repro.verify.driver import make_cases, sweep
from repro.verify.oracle import ORACLES, Case, Oracle

#: Cheap built-ins for driver-shape tests (no trace collection).
FAST_ORACLES = ["ml.artifact", "timers.crossing"]
SMALL = {"sites": 1, "traces": 1, "horizon_ms": 50.0}


class TestMakeCases:
    def test_one_case_per_seed(self):
        cases = make_cases([0, 5], sites=1, traces=3, horizon_ms=60.0)
        assert [c.seed for c in cases] == [0, 5]
        assert all(c.sites == 1 and c.traces == 3 for c in cases)

    def test_invalid_shape_propagates(self):
        with pytest.raises(ValueError):
            make_cases([0], sites=0)


class TestSweep:
    def test_empty_cases_rejected(self):
        with pytest.raises(ValueError, match="at least one case"):
            sweep([])

    def test_unknown_oracle_fails_fast(self):
        with pytest.raises(KeyError, match="no.such"):
            sweep(make_cases([0], **SMALL), oracles=["no.such"])

    def test_passing_sweep_report(self):
        cases = make_cases([0, 1], **SMALL)
        report = sweep(cases, oracles=FAST_ORACLES)
        assert report.ok
        assert report.n_cases == len(FAST_ORACLES) * len(cases)
        assert report.n_failures == 0
        for name in FAST_ORACLES:
            oracle_report = report.oracles[name]
            assert oracle_report.ok and oracle_report.counterexample is None
            assert len(oracle_report.results) == 2
        as_dict = report.as_dict()
        assert as_dict["ok"] is True
        assert set(as_dict["oracles"]) == set(FAST_ORACLES)

    def test_synthetic_failure_is_aggregated(self, monkeypatch):
        monkeypatch.setitem(
            ORACLES,
            "test.flaky",
            Oracle(
                name="test.flaky",
                description="fails on odd seeds",
                mode="invariant",
                check=lambda case: None if case.seed % 2 == 0 else "odd seed",
            ),
        )
        report = sweep(make_cases([0, 1, 2, 3], **SMALL), oracles=["test.flaky"])
        assert not report.ok
        assert report.n_failures == 2
        counterexample = report.oracles["test.flaky"].counterexample
        assert counterexample.case.seed == 1
        assert counterexample.failure == "odd seed"
        failures = report.as_dict()["oracles"]["test.flaky"]["failures"]
        assert [f["case"]["seed"] for f in failures] == [1, 3]

    def test_parallel_matches_serial(self):
        cases = make_cases([0, 1, 2], **SMALL)
        serial = sweep(cases, oracles=FAST_ORACLES, jobs=1)
        parallel = sweep(cases, oracles=FAST_ORACLES, jobs=2)
        assert parallel.ok and serial.ok
        assert parallel.n_cases == serial.n_cases
        # Engine results come back in task order, like the serial path.
        for name in FAST_ORACLES:
            serial_cases = [r.case for r in serial.oracles[name].results]
            parallel_cases = [r.case for r in parallel.oracles[name].results]
            assert serial_cases == parallel_cases


class TestFaultInjection:
    """The acceptance path: a perturbed RNG draw must trip its oracle."""

    def test_perturb_trips_only_sim_synthesize(self, perturbed_synthesizer):
        case = Case(seed=0, sites=2, traces=1, horizon_ms=50.0)
        report = sweep([case], oracles=["sim.synthesize", "timers.crossing"])
        assert not report.ok
        assert not report.oracles["sim.synthesize"].ok
        assert report.oracles["timers.crossing"].ok
        failure = report.oracles["sim.synthesize"].counterexample.failure
        assert "cores[0].arrivals" in failure

    def test_clean_environment_passes(self):
        case = Case(seed=0, sites=2, traces=1, horizon_ms=50.0)
        report = sweep([case], oracles=["sim.synthesize"])
        assert report.ok
