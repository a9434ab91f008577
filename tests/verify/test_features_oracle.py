"""The ``ml.features`` oracle passes on the one-pass feature transform and
catches a one-ulp divergence in it."""

import numpy as np
import pytest

import repro.verify.oracles  # noqa: F401 - registers the oracles
from repro.ml.features import FeatureExtractor
from repro.verify.oracle import Case, get_oracle
from repro.verify.shrink import shrink

DEFAULT = Case(seed=0)


def run(case=DEFAULT):
    return get_oracle("ml.features").run_case(case)


def nudge_deviation(monkeypatch):
    """The shipped transform's standard deviation of the first row moves
    one ulp up; the reference overrides ``transform`` and is unmoved."""
    transform = FeatureExtractor.transform

    def nudged(self, x):
        features = transform(self, x)
        features[0, -3] = np.nextafter(features[0, -3], np.inf)
        return features

    monkeypatch.setattr(FeatureExtractor, "transform", nudged)


class TestPasses:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_default_cases(self, seed):
        assert run(Case(seed=seed)) is None

    @pytest.mark.parametrize(
        "case",
        [
            Case(seed=4, sites=1, traces=1, horizon_ms=50.0),
            Case(seed=5, sites=1, traces=1, horizon_ms=0.1),
            Case(seed=6, sites=6, traces=5, horizon_ms=1000.0),
        ],
        ids=["shrinker-floor", "one-sample", "wide"],
    )
    def test_every_case_shape(self, case):
        assert run(case) is None


class TestCatchesABrokenTransform:
    def test_one_ulp_in_one_deviation_fails(self, monkeypatch):
        nudge_deviation(monkeypatch)
        failure = run()
        assert failure is not None
        assert failure.startswith("$.default counter band")

    def test_failure_shrinks_to_the_floor(self, monkeypatch):
        nudge_deviation(monkeypatch)
        result = shrink("ml.features", DEFAULT)
        assert (result.shrunk.sites, result.shrunk.traces) == (1, 1)
        assert result.shrunk.horizon_ms == 50.0
