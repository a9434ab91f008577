"""The ``ml.linear`` oracle passes on the in-place softmax regression and
catches a one-ulp divergence in its training."""

import numpy as np
import pytest

import repro.ml.linear
import repro.verify.oracles  # noqa: F401 - registers the oracles
from repro.verify.oracle import Case, get_oracle
from repro.verify.shrink import shrink


DEFAULT = Case(seed=0)


def run(case=DEFAULT):
    return get_oracle("ml.linear").run_case(case)


def nudge_second_update(monkeypatch):
    """Every fit's second Adam update moves ``params[0, 0]`` one ulp up."""
    update = repro.ml.linear._adam_update

    def nudged(params, grad, m, v, step, denom, learning_rate, t):
        update(params, grad, m, v, step, denom, learning_rate, t)
        if t == 2:
            params[0, 0] = np.nextafter(params[0, 0], np.inf)

    monkeypatch.setattr(repro.ml.linear, "_adam_update", nudged)


class TestPasses:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_default_cases(self, seed):
        assert run(Case(seed=seed)) is None

    @pytest.mark.parametrize(
        "case",
        [
            Case(seed=4, sites=1, traces=1, horizon_ms=50.0),
            Case(seed=5, sites=1, traces=1, horizon_ms=0.5),
            Case(seed=6, sites=6, traces=5, horizon_ms=1000.0),
        ],
        ids=["shrinker-floor", "one-feature", "wide"],
    )
    def test_every_case_shape(self, case):
        assert run(case) is None


class TestCatchesBrokenTraining:
    def test_one_ulp_in_one_adam_update_fails(self, monkeypatch):
        nudge_second_update(monkeypatch)
        failure = run()
        assert failure is not None
        assert failure.startswith("$.fold.W")

    def test_failure_shrinks_to_the_floor(self, monkeypatch):
        nudge_second_update(monkeypatch)
        result = shrink("ml.linear", DEFAULT)
        assert (result.shrunk.sites, result.shrunk.traces) == (1, 1)
        assert result.shrunk.horizon_ms == 50.0
