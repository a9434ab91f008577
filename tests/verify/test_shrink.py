"""Greedy shrinker: minimization, fixpoints, repro commands."""

import pytest

import repro.verify.oracles  # noqa: F401 - populate the registry
from repro.verify.oracle import ORACLES, Case, Oracle
from repro.verify.shrink import repro_command, shrink, shrink_report


def _install(monkeypatch, name, check):
    monkeypatch.setitem(
        ORACLES,
        name,
        Oracle(name=name, description="synthetic", mode="invariant", check=check),
    )


class TestShrink:
    def test_always_failing_collapses_to_floor(self, monkeypatch):
        _install(monkeypatch, "test.always", lambda case: "broken")
        result = shrink("test.always", Case(seed=9, sites=8, traces=4, horizon_ms=800.0))
        assert result.shrunk == Case(seed=9, sites=1, traces=1, horizon_ms=50.0)
        # Original failure + one floor probe; no halving needed.
        assert result.attempts == 2
        assert result.failure == "broken"

    def test_partial_shrink_respects_the_failure(self, monkeypatch):
        _install(
            monkeypatch,
            "test.needs_scale",
            lambda case: "broken" if case.sites >= 2 and case.traces >= 2 else None,
        )
        result = shrink(
            "test.needs_scale", Case(seed=1, sites=8, traces=8, horizon_ms=400.0)
        )
        assert result.shrunk.sites == 2
        assert result.shrunk.traces == 2
        assert result.shrunk.horizon_ms == 50.0
        assert result.shrunk.seed == 1  # the seed is never changed

    def test_passing_case_is_rejected(self, monkeypatch):
        _install(monkeypatch, "test.pass", lambda case: None)
        with pytest.raises(ValueError, match="nothing to shrink"):
            shrink("test.pass", Case(seed=0))

    def test_attempt_budget_is_respected(self, monkeypatch):
        calls = []

        def check(case):
            calls.append(case)
            return "broken"

        _install(monkeypatch, "test.budget", check)
        shrink("test.budget", Case(seed=0, sites=64, traces=64), max_attempts=3)
        assert len(calls) <= 3

    def test_perturbed_synthesizer_shrinks_to_one_line_repro(self, perturbed_synthesizer):
        result = shrink("sim.synthesize", Case(seed=0, sites=2, traces=2))
        assert "cores[0].arrivals" in result.failure
        assert result.shrunk.traces == 1  # the oracle ignores traces entirely
        assert result.shrunk.horizon_ms == 50.0
        command = result.repro_command
        assert command.startswith("PYTHONPATH=src python -m repro.verify")
        assert "--oracles sim.synthesize" in command
        assert "--seed-list 0" in command
        report = shrink_report(result)
        assert command in report and "attempt(s)" in report


class TestReproCommand:
    def test_round_trips_every_case_field(self):
        command = repro_command("timers.crossing", Case(seed=7, sites=3, traces=5, horizon_ms=125.0))
        assert "--seed-list 7" in command
        assert "--sites 3" in command
        assert "--traces 5" in command
        assert "--horizon-ms 125" in command
