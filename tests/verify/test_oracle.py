"""Case/Oracle model and the process-global registry."""

import pytest

import repro.verify.oracles  # noqa: F401 - populate the registry
from repro.verify.oracle import (
    ORACLES,
    Case,
    Oracle,
    get_oracle,
    list_oracles,
    register,
)


class TestCase:
    def test_defaults_and_dict(self):
        case = Case(seed=3)
        assert case.as_dict() == {
            "seed": 3,
            "sites": 2,
            "traces": 2,
            "horizon_ms": 400.0,
        }
        assert "seed=3" in case.describe()

    @pytest.mark.parametrize(
        "kwargs", [{"sites": 0}, {"traces": 0}, {"horizon_ms": 0.0}]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Case(seed=0, **kwargs)


class TestOracleModel:
    def test_invariant_mode_requires_exactly_check(self):
        with pytest.raises(ValueError, match="invariant"):
            Oracle(name="x", description="", mode="invariant")
        with pytest.raises(ValueError, match="invariant"):
            Oracle(
                name="x",
                description="",
                mode="invariant",
                check=lambda case: None,
                reference=lambda case: 1,
                optimized=lambda case: 1,
            )

    def test_differential_modes_require_both_sides(self):
        with pytest.raises(ValueError, match="reference"):
            Oracle(name="x", description="", mode="bit", reference=lambda case: 1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="comparison mode"):
            Oracle(name="x", description="", mode="fuzzy", check=lambda case: None)

    def test_run_case_differential_and_invariant(self):
        bit = Oracle(
            name="x",
            description="",
            mode="bit",
            reference=lambda case: case.seed,
            optimized=lambda case: case.seed + (case.seed % 2),
        )
        assert bit.run_case(Case(seed=0)) is None
        assert "numbers differ" in bit.run_case(Case(seed=1))
        inv = Oracle(
            name="y",
            description="",
            mode="invariant",
            check=lambda case: None if case.seed == 0 else "broken",
        )
        assert inv.run_case(Case(seed=0)) is None
        assert inv.run_case(Case(seed=1)) == "broken"


class TestRegistry:
    def test_builtins_are_registered(self):
        names = list_oracles()
        assert {
            "collect.walk",
            "engine.parallel",
            "engine.trace_cache",
            "ml.artifact",
            "ml.features",
            "ml.linear",
            "ml.network",
            "serve.batched",
            "sim.gap_timeline",
            "sim.synthesize",
            "timers.crossing",
            "timers.jitter",
            "tracing.attribution",
        } <= set(names)
        assert names == sorted(names)

    def test_duplicate_registration_rejected(self):
        existing = ORACLES["sim.synthesize"]
        with pytest.raises(ValueError, match="already registered"):
            register(existing)

    def test_get_oracle_error_lists_known_names(self):
        with pytest.raises(KeyError, match="sim.synthesize"):
            get_oracle("no.such.oracle")
