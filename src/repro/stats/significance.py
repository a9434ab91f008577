"""Statistical tests used in the paper's evaluation.

The paper uses "a standard 2-sample t-test to compute the statistical
significance of our classifier compared to the classifier from [65]"
(§4.2), reporting p < 0.0001 for all but one configuration.  We
implement Student's (pooled) and Welch's two-sample t-tests from first
principles; the scipy implementations are used in tests as an oracle.

Both tests are scale-free: they compute on the two samples scaled by one
power of two, so a common unit does not move the result, however small
or large it is.

>>> a, b = [1.0, 2.0, 4.0], [3.0, 5.0, 6.0]
>>> round(students_t_test(a, b).statistic, 4)
-1.8708
>>> tiny = students_t_test([x * 1e-162 for x in a], [x * 1e-162 for x in b])
>>> round(tiny.statistic, 4), round(tiny.p_value, 4)
(-1.8708, 0.1347)
>>> round(welch_t_test([x * 1e-162 for x in a], [x * 1e-162 for x in b]).statistic, 4)
-1.8708
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a two-sample t-test."""

    statistic: float
    p_value: float
    dof: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def _t_sf(t: float, dof: float) -> float:
    """Two-sided p-value for |T| >= |t| under a t distribution."""
    x = dof / (dof + t * t)
    # Regularized incomplete beta gives the t-distribution tail directly.
    return float(special.betainc(dof / 2.0, 0.5, x))


def _validate(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as float arrays, scaled by one power of two so that
    the largest magnitude lies in [0.5, 1).

    A power of two changes no significant bit, and the statistic,
    degrees of freedom and p-value do not depend on a common unit, so a
    unit near either end of the float range (1e-160, 1e160) no longer
    underflows or overflows the variances.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least two observations")
    peak = max(np.abs(a).max(), np.abs(b).max())
    if not np.isfinite(peak):
        return a, b
    _, exponent = np.frexp(peak)
    return np.ldexp(a, -exponent), np.ldexp(b, -exponent)


def students_t_test(a, b) -> TTestResult:
    """Standard (pooled-variance) two-sample t-test."""
    a, b = _validate(a, b)
    na, nb = len(a), len(b)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    dof = na + nb - 2
    pooled = ((na - 1) * va + (nb - 1) * vb) / dof
    if pooled == 0:
        statistic = math.inf if a.mean() != b.mean() else 0.0
        return TTestResult(statistic, 0.0 if statistic else 1.0, dof)
    statistic = (a.mean() - b.mean()) / math.sqrt(pooled * (1 / na + 1 / nb))
    return TTestResult(float(statistic), _t_sf(abs(statistic), dof), float(dof))


def welch_t_test(a, b) -> TTestResult:
    """Welch's unequal-variance two-sample t-test."""
    a, b = _validate(a, b)
    na, nb = len(a), len(b)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / na + vb / nb
    if se2 == 0:
        statistic = math.inf if a.mean() != b.mean() else 0.0
        return TTestResult(statistic, 0.0 if statistic else 1.0, float(na + nb - 2))
    statistic = (a.mean() - b.mean()) / math.sqrt(se2)
    # Welch–Satterthwaite, computed on ratios of the per-sample terms: at
    # unit scale one sample's variance can still be tiny (a constant
    # sample against one that spreads over 1e-100), and its square would
    # underflow into 0/0.
    x, y = va / na, vb / nb
    scale = max(x, y)
    xr, yr = x / scale, y / scale
    dof = (xr + yr) ** 2 / (xr**2 / (na - 1) + yr**2 / (nb - 1))
    return TTestResult(float(statistic), _t_sf(abs(statistic), dof), float(dof))
