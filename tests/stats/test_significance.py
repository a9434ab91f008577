"""Tests for t-tests, with scipy as the oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.stats.significance import (
    compare_fold_accuracies,
    students_t_test,
    welch_t_test,
)

samples = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=3,
    max_size=40,
)


#: Small enough that squaring a variance term of these samples underflows.
TINY = 1.7459556399844538e-83


def unit_scale(a, b):
    """``a`` and ``b`` scaled up by one power of two, exactly, so that the
    larger magnitude is at least 0.5.  A t-test's statistic, degrees of
    freedom and p-value do not change under a common scale."""
    _, exponent = np.frexp(max(np.abs(a).max(), np.abs(b).max()))
    shift = -min(int(exponent), 0)
    return np.ldexp(a, shift), np.ldexp(b, shift)


class TestAgainstScipy:
    @given(samples, samples)
    @settings(max_examples=100, deadline=None)
    def test_students_matches_scipy(self, a, b):
        a, b = np.array(a), np.array(b)
        if a.var(ddof=1) == 0 and b.var(ddof=1) == 0:
            return
        ours = students_t_test(a, b)
        theirs = scipy_stats.ttest_ind(a, b, equal_var=True)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-8, abs=1e-10)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6, abs=1e-10)

    @given(samples, samples)
    @settings(max_examples=100, deadline=None)
    @example(a=[0.0, 0.0, TINY], b=[0.0, TINY, TINY])
    def test_welch_matches_scipy(self, a, b):
        a, b = np.array(a), np.array(b)
        if a.var(ddof=1) == 0 or b.var(ddof=1) == 0:
            return
        ours = welch_t_test(a, b)
        # scipy squares the per-sample variance terms for the
        # Welch-Satterthwaite degrees of freedom; near 1e-83 the squares
        # underflow to 0/0 and scipy falls back to one degree of freedom.
        theirs = scipy_stats.ttest_ind(*unit_scale(a, b), equal_var=False)
        assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-8, abs=1e-10)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6, abs=1e-10)


class TestBehaviour:
    def test_identical_samples_not_significant(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        result = students_t_test(a, a)
        assert result.p_value == pytest.approx(1.0)
        assert not result.significant()

    def test_clearly_different_samples_significant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.95, 0.01, 10)
        b = rng.normal(0.80, 0.01, 10)
        result = students_t_test(a, b)
        assert result.significant(alpha=0.0001)

    def test_paper_style_fold_comparison(self):
        """Chrome/Linux closed world: 96.6±0.8 vs 91.4±1.2 over 10 folds
        is significant with p < 0.0001, as the paper reports."""
        rng = np.random.default_rng(1)
        ours = rng.normal(0.966, 0.008, 10)
        theirs = rng.normal(0.914, 0.012, 10)
        result = compare_fold_accuracies(ours, theirs)
        assert result.p_value < 0.0001

    def test_zero_variance_distinct_means(self):
        result = students_t_test([1.0, 1.0], [2.0, 2.0])
        assert result.p_value == 0.0

    def test_too_few_observations_rejected(self):
        with pytest.raises(ValueError):
            students_t_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            welch_t_test([1.0, 2.0], [3.0])
