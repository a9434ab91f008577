"""Tier-1 tests for the experiment modules."""

from repro.experiments.base import get_spec


def assert_claims_return_bools(experiment_id, result, scale):
    """Every claim the experiment declares yields a ``bool`` on ``result``.

    Tier-1 results run at TINY scale, too small for the paper's shapes to
    show, so this checks the predicates, not their verdicts;
    ``benchmarks/test_claims.py`` asserts the verdicts at smoke scale.
    """
    verdicts = {claim.id: claim.holds(result, scale) for claim in get_spec(experiment_id).claims}
    assert verdicts, f"{experiment_id} declares no claims"
    assert all(type(verdict) is bool for verdict in verdicts.values()), verdicts
