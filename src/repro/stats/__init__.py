"""Statistics used by the evaluation: t-tests, summaries, top-k."""

from repro.stats.significance import TTestResult, students_t_test, welch_t_test
from repro.stats.summary import MeanStd, pearson_r, top_k_accuracy

__all__ = [
    "TTestResult", "students_t_test",
    "welch_t_test", "MeanStd", "pearson_r", "top_k_accuracy",
]
